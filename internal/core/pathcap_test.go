package core

import (
	"fmt"
	"testing"

	"flexcore/internal/channel"
	"flexcore/internal/cmatrix"
	"flexcore/internal/constellation"
)

// capBase is the test's model of one coherence base: which channel it
// is keyed on and what its path set covers.
type capBase struct {
	valid        bool
	ch           int // index of the frame it was selected for
	limit, paths int
}

// covers is the coverage rule as DESIGN.md §14 states it, restated
// independently of pathStore.covers.
func (b capBase) covers(k int) bool { return b.limit >= k || b.paths < b.limit }

// TestPathCapEquivalence is the SetPathCap contract: one detector, one
// ReuseState, a sequence of caps and channels — and after every Prepare
// the detector is indistinguishable from a fresh one built with
// Options.NPE = the cap: the same paths, the same descent plan, the same
// decisions and operation counts, the same Σ Pc bit for bit. On top of
// that the reuse counters follow the coverage rule exactly: a base
// selected under a larger bound serves a cap by prefix, a base cut
// shorter than the cap does not, and a base that stopped on the
// threshold serves any cap.
//
// The script opens with the named transitions on an unchanged channel —
// full → capped → full (miss, hit by prefix, hit) and, on a new channel,
// capped → full (miss, miss by coverage, hit) — and continues with a
// random interleaving. frame mode drives PrepareAll/Select over four
// subcarriers with a ReuseState, scalar mode Prepare's own one-slot base.
func TestPathCapEquivalence(t *testing.T) {
	for _, bb := range benchBackends {
		for _, theta := range []float64{0, 0.95} {
			for _, frame := range []bool{true, false} {
				name := map[bool]string{true: "frame", false: "scalar"}[frame]
				t.Run(fmt.Sprintf("%s/%s/θ=%g", bb.name, name, theta), func(t *testing.T) {
					checkPathCapScript(t, bb.backend, theta, frame)
				})
			}
		}
	}
}

// checkPathCapScript runs the TestPathCapEquivalence script on one
// backend and threshold, through PrepareAll/Select (frame) or scalar
// Prepare.
func checkPathCapScript(t *testing.T, backend Backend, theta float64, frame bool) {
	const nr, nt, npe = 5, 4, 24
	cons := constellation.MustNew(16)
	// Noisy enough that the 0.95 threshold stops anywhere between 4 and
	// 20 paths: bases both shorter and longer than the caps below.
	sigma2 := channel.Sigma2FromSNRdB(8, 1)
	caps := []int{0, 1, 3, 8, 16, npe, 40}
	nSC := 1
	if frame {
		nSC = 4
	}
	var chans [3][]*cmatrix.Matrix
	var ys [3][][]complex128
	rng := newRng(1801)
	for c := range chans {
		chans[c] = frameChannels(1810+uint64(c), nr, nt, nSC)
		for _, h := range chans[c] {
			ys[c] = append(ys[c], transmit(rng, h, cons, randSymbols(rng, cons, nt), sigma2))
		}
	}

	det := New(cons, Options{NPE: npe, Threshold: theta, Backend: backend, PathReuse: true})
	var st ReuseState
	det.SetReuseState(&st)
	prepare := func(d *FlexCore, hs []*cmatrix.Matrix) {
		t.Helper()
		var err error
		if frame {
			err = d.PrepareAll(hs, sigma2)
		} else {
			err = d.Prepare(hs[0], sigma2)
		}
		if err != nil {
			t.Fatal(err)
		}
	}

	type step struct{ ch, cap int }
	script := []step{{0, 0}, {0, 0}, {0, 8}, {0, 0}, {1, 8}, {1, 0}, {1, 0}}
	for len(script) < 80 {
		script = append(script, step{rng.IntN(len(chans)), caps[rng.IntN(len(caps))]})
	}

	bases := make([]capBase, nSC)
	var prefixHits, coverageMisses, shortBaseHits int
	for i, s := range script {
		eff := npe
		if 0 < s.cap && s.cap < npe {
			eff = s.cap
		}
		fresh := New(cons, Options{NPE: eff, Threshold: theta, Backend: backend})
		prepare(fresh, chans[s.ch])

		det.SetPathCap(s.cap)
		ops0, pp0 := det.OpCount(), det.PreprocessStats()
		prepare(det, chans[s.ch])
		ops1, pp1 := det.OpCount(), det.PreprocessStats()

		// What the coverage rule says this Prepare did.
		var hits, misses, expanded, muls int64
		for k := range bases {
			b := &bases[k]
			if b.valid && b.covers(eff) {
				if b.ch == s.ch {
					hits++
					if eff < b.paths {
						prefixHits++
					}
					if b.limit < eff {
						shortBaseHits++
					}
					continue
				}
			} else if b.valid && b.ch == s.ch {
				coverageMisses++
			}
			misses++
			found := len(fresh.Paths())
			fs := fresh.ppOps
			if frame {
				found = fresh.frame[k].set.count()
				_, fs = FindPaths(&fresh.frame[k].model, eff, theta)
			}
			expanded += fs.Expanded
			muls += fs.RealMuls
			*b = capBase{valid: true, ch: s.ch, limit: eff, paths: found}
		}
		if got := pp1.CacheHits - pp0.CacheHits; got != hits {
			t.Fatalf("step %d %+v: %d cache hits, the coverage rule says %d", i, s, got, hits)
		}
		if got := pp1.CacheMisses - pp0.CacheMisses; got != misses {
			t.Fatalf("step %d %+v: %d cache misses, the coverage rule says %d", i, s, got, misses)
		}
		if pp1.Expanded-pp0.Expanded != expanded || pp1.RealMuls-pp0.RealMuls != muls {
			t.Fatalf("step %d %+v: search work (%d expanded, %d muls), the fresh searches of the missed subcarriers did (%d, %d)",
				i, s, pp1.Expanded-pp0.Expanded, pp1.RealMuls-pp0.RealMuls, expanded, muls)
		}
		// Prepare's own arithmetic: the fresh detector's; the key test
		// charges nothing, as the model's input never has.
		want := fresh.OpCount()
		got := ops1
		got.RealMuls -= ops0.RealMuls
		got.FLOPs -= ops0.FLOPs
		got.Prepares -= ops0.Prepares
		got.Nodes -= ops0.Nodes
		got.Detections -= ops0.Detections
		if got != want {
			t.Fatalf("step %d %+v: Prepare counted %+v, want %+v", i, s, got, want)
		}

		for k := 0; k < nSC; k++ {
			if frame {
				if err := det.Select(k); err != nil {
					t.Fatal(err)
				}
				if err := fresh.Select(k); err != nil {
					t.Fatal(err)
				}
			}
			if !samePaths(det.Paths(), fresh.Paths()) {
				t.Fatalf("step %d %+v subcarrier %d: %d paths differ from the %d of a fresh N_PE=%d detector",
					i, s, k, len(det.Paths()), len(fresh.Paths()), eff)
			}
			if g, w := det.soa.prep.Plan.Nodes(), fresh.soa.prep.Plan.Nodes(); g != w {
				t.Fatalf("step %d %+v subcarrier %d: plan of %d nodes, fresh N_PE=%d plan has %d", i, s, k, g, eff, w)
			}
			d0, f0 := det.OpCount(), fresh.OpCount()
			gotDec := append([]int(nil), det.Detect(ys[s.ch][k])...)
			if wantDec := fresh.Detect(ys[s.ch][k]); !equalInts(gotDec, wantDec) {
				t.Fatalf("step %d %+v subcarrier %d: decisions %v, fresh N_PE=%d detector %v", i, s, k, gotDec, eff, wantDec)
			}
			d1, f1 := det.OpCount(), fresh.OpCount()
			if d1.RealMuls-d0.RealMuls != f1.RealMuls-f0.RealMuls || d1.FLOPs-d0.FLOPs != f1.FLOPs-f0.FLOPs || d1.Nodes-d0.Nodes != f1.Nodes-f0.Nodes {
				t.Fatalf("step %d %+v subcarrier %d: Detect counted differently from a fresh N_PE=%d detector", i, s, k, eff)
			}
		}
	}

	// The script must have exercised what it is here for.
	if prefixHits == 0 {
		t.Error("no base ever served a smaller cap by prefix")
	}
	if theta == 0 && coverageMisses == 0 {
		t.Error("no coherent base was ever passed over for being cut shorter than the cap")
	}
	if theta > 0 && shortBaseHits == 0 {
		t.Error("no threshold-stopped base ever served a cap above the bound it was searched under")
	}
}

// TestCappedHitCopiesOnlyThePrefix pins the one copy a ReuseState hit
// still makes: under a cap below the base's size the slot takes the
// base's first paths into its own store and leaves the base whole, so the
// uncapped frame after it hits the whole base again, in place.
func TestCappedHitCopiesOnlyThePrefix(t *testing.T) {
	const npe, capped, nSC = 24, 8, 4
	cons := constellation.MustNew(16)
	hs := frameChannels(1830, 5, 4, nSC)
	for _, bb := range benchBackends {
		fc := New(cons, Options{NPE: npe, PathReuse: true, Backend: bb.backend})
		var st ReuseState
		fc.SetReuseState(&st)
		for i, k := range []int{0, capped, 0} {
			fc.SetPathCap(k)
			if err := fc.PrepareAll(hs, 0.05); err != nil {
				t.Fatal(err)
			}
			for sc := range hs {
				s, base := &fc.frame[sc], &st.slots[sc].pathStore
				if base.count() != npe || base.limit != npe {
					t.Fatalf("%s frame %d: base %d holds %d paths under bound %d, want the whole %d", bb.name, i, sc, base.count(), base.limit, npe)
				}
				if k == 0 && s.set != base {
					t.Fatalf("%s frame %d: uncapped subcarrier %d does not select the base in place", bb.name, i, sc)
				}
				if k != 0 && (s.set != &s.own || s.own.count() != capped || !samePaths(s.own.view(), base.view()[:capped])) {
					t.Fatalf("%s frame %d: capped subcarrier %d does not hold a copy of the base's first %d paths", bb.name, i, sc, capped)
				}
			}
		}
		if pp := fc.PreprocessStats(); pp.CacheMisses != nSC || pp.CacheHits != 2*nSC {
			t.Fatalf("%s: %d misses and %d hits, want %d and %d", bb.name, pp.CacheMisses, pp.CacheHits, nSC, 2*nSC)
		}
	}
}
