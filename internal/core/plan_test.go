package core

import (
	"fmt"
	"math"
	"testing"

	"flexcore/internal/channel"
	"flexcore/internal/cmatrix"
	"flexcore/internal/constellation"
	"flexcore/internal/kernel32"
)

// compilePaths is the generic route: the first k paths' rank plane
// through kernel32's Compile.
func compilePaths(comp *kernel32.Compiler, pl *kernel32.Plan, paths []Path, k int) {
	ranks := comp.Ranks(len(paths[0].Ranks), k)
	for p, path := range paths[:k] {
		for i, r := range path.Ranks {
			ranks[i*k+p] = int16(r)
		}
	}
	comp.Compile(pl)
}

// samePlans fails unless the finder-built plan of paths keeps the
// compact layout (Plan.Check: its runs contiguous in lane order, the
// arenas zero beyond its Nodes()) and is, slot
// for slot and link for link, the plan Compile builds from their rank
// plane, and so is its prefix of the first k lanes for a few k.
func samePlans(t *testing.T, what string, plan *kernel32.Plan, paths []Path) {
	t.Helper()
	var comp kernel32.Compiler
	var want, prefix kernel32.Plan
	P := len(paths)
	compilePaths(&comp, &want, paths, P)
	for _, pl := range []*kernel32.Plan{plan, &want} {
		if err := pl.Check(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	}
	if !plan.Equal(&want) || plan.Nodes() != want.Nodes() {
		t.Fatalf("%s: finder-built plan of %d paths differs from the compiled one:\n got %+v\nwant %+v", what, P, *plan, want)
	}
	for _, k := range []int{1, P / 3, P - 1} {
		if k < 1 {
			continue
		}
		compilePaths(&comp, &want, paths, k)
		prefix.CopyPrefix(plan, k)
		if err := prefix.Check(); err != nil {
			t.Fatalf("%s: %d-lane prefix: %v", what, k, err)
		}
		if !prefix.Equal(&want) || prefix.Nodes() != want.Nodes() {
			t.Fatalf("%s: %d-lane prefix of the finder-built plan differs from the first %d paths compiled:\n got %+v\nwant %+v", what, k, k, prefix, want)
		}
	}
}

// TestFinderPlanMatchesCompile pins the lane builder the finder uses
// (kernel32.Plan.Branch) to the generic compiler, sibling links, tops
// and owners included: on random models, budgets and thresholds straight
// through the finder, then through a soa32 detector's scalar Prepare
// and PrepareAll/Select under changing path caps with reuse on, so
// capped hits take plan prefixes.
func TestFinderPlanMatchesCompile(t *testing.T) {
	rng := newRng(1410)
	var f pathFinder
	var dst pathStore
	for trial := 0; trial < 400; trial++ {
		pe := make([]float64, 1+rng.IntN(10))
		for i := range pe {
			pe[i] = math.Pow(10, -4*rng.Float64()) * peMax
		}
		m := modelFromPe([]int{4, 16, 64}[rng.IntN(3)], pe)
		thr := 0.0
		if trial%3 == 0 {
			thr = 0.05 + 0.94*rng.Float64()
		}
		f.find(m, 1+rng.IntN(400), thr, &dst)
		samePlans(t, "finder", &dst.plan, dst.view())
	}

	cons := constellation.MustNew(16)
	sigma2 := channel.Sigma2FromSNRdB(12, 1)
	caps := []int{0, 1, 5, 40, 0, 200}
	for _, frame := range []bool{false, true} {
		det := New(cons, Options{NPE: 256, Backend: BackendSoA32, PathReuse: true})
		var st ReuseState
		det.SetReuseState(&st)
		for step := 0; step < 24; step++ {
			hs := frameChannels(1420+uint64(step%3), 4, 4, 3)
			det.SetPathCap(caps[step%len(caps)])
			var err error
			if frame {
				err = det.PrepareAll(hs, sigma2)
			} else {
				err = det.Prepare(hs[0], sigma2)
			}
			if err != nil {
				t.Fatal(err)
			}
			for k := range hs {
				if frame {
					if err := det.Select(k); err != nil {
						t.Fatal(err)
					}
				} else if k > 0 {
					break
				}
				samePlans(t, "detector", det.soa.prep.Plan, det.Paths())
			}
		}
	}
}

// TestPlanSharesPrefixes pins the property the SoA descent's speed rests
// on: the best-first path set is so redundant that its prefix trie has
// far fewer nodes than paths × levels (averaged over seeded Rayleigh
// channels; a single draw varies by ±10 %). A finder change that destroys the
// sharing fails here, not in a benchmark. The same loop cross-checks the
// two ways a plan gets built: the finder's lane builder must produce
// exactly the trie the generic rank-plane compiler finds, and so must
// every lane prefix of it.
func TestPlanSharesPrefixes(t *testing.T) {
	const channels = 40
	for _, tc := range []struct {
		name         string
		nt, qam, npe int
		snrDB, share float64
	}{
		{"12x12-64QAM-128", 12, 64, 128, 16, 0.65},
		{"4x4-16QAM-512", 4, 16, 512, 14, 0.45},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cons := constellation.MustNew(tc.qam)
			sigma2 := channel.Sigma2FromSNRdB(tc.snrDB, 1)
			rng := newRng(1400)
			fc := New(cons, Options{NPE: tc.npe, Backend: BackendSoA32})
			total, flat := 0, 0 // distinct nodes, paths × levels, over all channels
			for ch := 0; ch < channels; ch++ {
				if err := fc.Prepare(channel.Rayleigh(rng, tc.nt, tc.nt), sigma2); err != nil {
					t.Fatal(err)
				}
				total += fc.soa.prep.Plan.Nodes()
				flat += tc.nt * len(fc.Paths())
				samePlans(t, tc.name, fc.soa.prep.Plan, fc.Paths())
			}
			if got := float64(total) / float64(flat); got > tc.share {
				t.Errorf("%d distinct nodes of %d path-levels over %d channels: share %.3f, want ≤ %.2f", total, flat, channels, got, tc.share)
			} else {
				t.Logf("distinct-node share %.3f (limit %.2f)", got, tc.share)
			}
		})
	}
}

// TestRankViewMatchesFindPaths pins the rank vectors a detector
// materialises from its plans on demand: after PrepareAll, Select(k)
// and Paths() give, for every subcarrier k, exactly what FindPaths —
// and the executable specification — return for that subcarrier's
// model: ranks, order, LogP bits and Σ Pc bits —
// whether the slot searched (a miss) or aliased or copied a prefix of the
// ReuseState's base (a hit, capped or not), on both backends.
func TestRankViewMatchesFindPaths(t *testing.T) {
	const nr, nt, npe, nSC = 5, 4, 48, 4
	cons := constellation.MustNew(16)
	sigma2 := channel.Sigma2FromSNRdB(3, 1) // noisy: paths step up several levels
	frames := [][]*cmatrix.Matrix{frameChannels(1850, nr, nt, nSC), frameChannels(1851, nr, nt, nSC)}
	for _, bb := range benchBackends {
		for _, theta := range []float64{0, 0.9} {
			det := New(cons, Options{NPE: npe, Threshold: theta, Backend: bb.backend, PathReuse: true})
			var st ReuseState
			det.SetReuseState(&st)
			for step, s := range []struct{ frame, cap int }{{0, 0}, {0, 0}, {0, 8}, {1, 8}, {1, 0}, {1, 0}, {0, 3}} {
				det.SetPathCap(s.cap)
				if err := det.PrepareAll(frames[s.frame], sigma2); err != nil {
					t.Fatal(err)
				}
				if pp := det.PreprocessStats(); step == 0 && (pp.CacheHits != 0 || pp.CacheMisses != nSC) {
					t.Fatalf("%s θ=%g: first frame took %d hits and %d misses, want %d misses", bb.name, theta, pp.CacheHits, pp.CacheMisses, nSC)
				}
				eff := npe
				if s.cap > 0 {
					eff = s.cap
				}
				for k, h := range frames[s.frame] {
					if err := det.Select(k); err != nil {
						t.Fatal(err)
					}
					m := NewModel(cmatrix.SortedQR(h, cmatrix.OrderSQRD).R, sigma2, cons)
					want, ws := FindPaths(m, eff, theta)
					what := fmt.Sprintf("%s θ=%g step %d %+v subcarrier %d", bb.name, theta, step, s, k)
					sameSearch(t, what, det.Paths(), want, PreprocessStats{}, PreprocessStats{})
					// FindPaths materialises its ranks the same way: pin both to
					// the specification, which never builds a plan.
					spec, ss := specFindPaths(m, eff, theta)
					sameSearch(t, what+" (spec)", want, spec, ws, ss)
				}
			}
			if pp := det.PreprocessStats(); pp.CacheMisses == 0 || pp.CacheHits == 0 {
				t.Fatalf("%s θ=%g: %d hits and %d misses, want both kinds", bb.name, theta, pp.CacheHits, pp.CacheMisses)
			}
		}
	}
}
