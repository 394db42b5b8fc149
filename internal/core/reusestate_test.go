package core

import (
	"testing"

	"flexcore/internal/channel"
	"flexcore/internal/cmatrix"
	"flexcore/internal/constellation"
)

// detectFrame prepares hs with PrepareAll and detects one burst per
// subcarrier, returning cloned decisions.
func detectFrame(t *testing.T, fc *FlexCore, hs []*cmatrix.Matrix, ys [][]complex128, sigma2 float64) [][]int {
	t.Helper()
	if err := fc.PrepareAll(hs, sigma2); err != nil {
		t.Fatal(err)
	}
	out := make([][]int, len(hs))
	for k := range hs {
		if err := fc.Select(k); err != nil {
			t.Fatal(err)
		}
		out[k] = append([]int(nil), fc.Detect(ys[k])...)
	}
	return out
}

// TestReuseStateCrossFrameExact pins the tentpole guarantee of the
// cross-frame coherence state: an installed ReuseState only fires on a
// bit-identical level key, so a detector carrying
// per-user state across frames produces decisions identical to a fresh
// no-reuse detector — while a static channel (the same H re-sent every
// frame) skips the candidate-position search on every subcarrier from
// the second frame on.
func TestReuseStateCrossFrameExact(t *testing.T) {
	cons := constellation.MustNew(16)
	const nr, nt, nSC, nFrames = 5, 4, 8, 4
	sigma2 := channel.Sigma2FromSNRdB(16, 1)
	// A static frequency-selective channel: every frame re-sends the
	// same per-subcarrier H array, as a stationary user would.
	hs := frameChannels(71, nr, nt, nSC)
	rng := newRng(72)
	frames := make([][][]complex128, nFrames)
	for f := range frames {
		ys := make([][]complex128, nSC)
		for k := range ys {
			ys[k] = transmit(rng, hs[k], cons, randSymbols(rng, cons, nt), sigma2)
		}
		frames[f] = ys
	}

	// Both backends: on soa32 every hit also selects the base's descent
	// plan, which the decisions below then walk.
	for _, backend := range []Backend{BackendComplex128, BackendSoA32} {
		ref := New(cons, Options{NPE: 24, Backend: backend})
		fc := New(cons, Options{NPE: 24, PathReuse: true, Backend: backend})
		var st ReuseState
		fc.SetReuseState(&st)
		for f, ys := range frames {
			want := detectFrame(t, ref, hs, ys, sigma2)
			got := detectFrame(t, fc, hs, ys, sigma2)
			for k := range want {
				if !equalInts(got[k], want[k]) {
					t.Fatalf("%v frame %d subcarrier %d: reuse-state decisions %v, want %v",
						backend, f, k, got[k], want[k])
				}
			}
		}
		// Frame 0 pays nSC fresh searches (the zero-value state holds no
		// base); every later frame re-sends the identical H array and must
		// hit the external base on all nSC subcarriers.
		pp := fc.PreprocessStats()
		if wantHits := int64((nFrames - 1) * nSC); pp.CacheHits != wantHits {
			t.Fatalf("%v: CacheHits = %d, want %d (all subcarriers of frames 2..%d)",
				backend, pp.CacheHits, wantHits, nFrames)
		}
		if pp.CacheMisses != nSC {
			t.Fatalf("%v: CacheMisses = %d, want %d (frame 1 only)", backend, pp.CacheMisses, nSC)
		}
	}
}

// TestReuseStatePerturbedRebase drives a slowly-varying channel through
// a shared state: a perturbed frame misses, re-bases the
// state, and the perturbed frame re-sent afterwards hits again — the
// pin-until-miss semantics of PrepareAll's re-base.
func TestReuseStatePerturbedRebase(t *testing.T) {
	cons := constellation.MustNew(16)
	const nr, nt, nSC = 5, 4, 6
	sigma2 := channel.Sigma2FromSNRdB(16, 1)
	ha := frameChannels(81, nr, nt, nSC)
	hb := frameChannels(82, nr, nt, nSC) // an independent draw: every level key differs
	rng := newRng(83)
	ys := make([][]complex128, nSC)
	for k := range ys {
		ys[k] = transmit(rng, ha[k], cons, randSymbols(rng, cons, nt), sigma2)
	}

	fc := New(cons, Options{NPE: 24, PathReuse: true})
	var st ReuseState
	fc.SetReuseState(&st)

	ref := New(cons, Options{NPE: 24})

	hits := func() int64 { return fc.PreprocessStats().CacheHits }
	step := func(hs []*cmatrix.Matrix) {
		t.Helper()
		want := detectFrame(t, ref, hs, ys, sigma2)
		got := detectFrame(t, fc, hs, ys, sigma2)
		for k := range want {
			if !equalInts(got[k], want[k]) {
				t.Fatalf("decisions diverged on subcarrier %d", k)
			}
		}
	}

	step(ha) // fresh
	step(hb) // channel changed: every subcarrier misses and re-bases
	if h := hits(); h != 0 {
		t.Fatalf("perturbed frame hit the stale base %d times, want 0", h)
	}
	step(hb) // re-sent: the re-based state hits everywhere
	if h := hits(); h != nSC {
		t.Fatalf("re-sent frame after re-base: CacheHits = %d, want %d", h, nSC)
	}

	// Reset invalidates the bases without touching correctness.
	st.Reset()
	step(hb)
	if h := hits(); h != nSC {
		t.Fatalf("frame after Reset hit %d times, want 0 new hits", h-nSC)
	}
	step(hb)
	if h := hits(); h != 2*nSC {
		t.Fatalf("re-sent frame after Reset: CacheHits = %d, want %d", h, 2*nSC)
	}
}

// TestReuseStateGeometryChange covers frame-size churn on one state: a
// larger frame grows the slot array, a smaller frame only consults its
// prefix, and decisions stay pinned to the no-reuse reference
// throughout.
func TestReuseStateGeometryChange(t *testing.T) {
	cons := constellation.MustNew(4)
	const nr, nt = 4, 3
	sigma2 := channel.Sigma2FromSNRdB(14, 1)
	small := frameChannels(91, nr, nt, 4)
	large := frameChannels(92, nr, nt, 10)
	rng := newRng(93)
	ysL := make([][]complex128, len(large))
	for k := range ysL {
		ysL[k] = transmit(rng, large[k], cons, randSymbols(rng, cons, nt), sigma2)
	}

	fc := New(cons, Options{NPE: 8, PathReuse: true})
	ref := New(cons, Options{NPE: 8})
	var st ReuseState
	fc.SetReuseState(&st)

	for _, hs := range [][]*cmatrix.Matrix{small, large, large, small, small} {
		ys := ysL[:len(hs)]
		want := detectFrame(t, ref, hs, ys, sigma2)
		got := detectFrame(t, fc, hs, ys, sigma2)
		for k := range want {
			if !equalInts(got[k], want[k]) {
				t.Fatalf("frame of %d subcarriers, subcarrier %d: decisions diverged", len(hs), k)
			}
		}
	}
	// large repeated (10 hits) + small repeated (4 hits); the first
	// small frame's bases were overwritten by the first large frame.
	if pp := fc.PreprocessStats(); pp.CacheHits != 14 {
		t.Fatalf("CacheHits = %d, want 14 across the geometry churn", pp.CacheHits)
	}

	// Detaching the state leaves the detector no base to hit: a re-sent
	// frame no longer hits.
	fc.SetReuseState(nil)
	before := fc.PreprocessStats().CacheHits
	_ = detectFrame(t, fc, small, ysL[:len(small)], sigma2)
	if pp := fc.PreprocessStats(); pp.CacheHits != before {
		t.Fatalf("detached detector still hit the external base (%d new hits)", pp.CacheHits-before)
	}
}

// TestReuseStateHandoff moves one user's state between two detectors —
// the serving layer's worker-pool pattern, where any worker of a shard
// may process a user's next frame. The second detector must hit the
// bases the first one stored and keep decisions bit-identical.
func TestReuseStateHandoff(t *testing.T) {
	cons := constellation.MustNew(16)
	const nr, nt, nSC = 5, 4, 6
	sigma2 := channel.Sigma2FromSNRdB(16, 1)
	hs := frameChannels(61, nr, nt, nSC)
	rng := newRng(62)
	ys := make([][]complex128, nSC)
	for k := range ys {
		ys[k] = transmit(rng, hs[k], cons, randSymbols(rng, cons, nt), sigma2)
	}
	for _, bb := range benchBackends {
		ref := New(cons, Options{NPE: 24, Backend: bb.backend})
		want := detectFrame(t, ref, hs, ys, sigma2)

		opts := Options{NPE: 24, PathReuse: true, Backend: bb.backend}
		a, b := New(cons, opts), New(cons, opts)
		var st ReuseState

		for i, fc := range []*FlexCore{a, b, a, b} {
			fc.SetReuseState(&st)
			got := detectFrame(t, fc, hs, ys, sigma2)
			fc.SetReuseState(nil)
			for k := range want {
				if !equalInts(got[k], want[k]) {
					t.Fatalf("%s handoff step %d subcarrier %d: decisions diverged", bb.name, i, k)
				}
			}
		}
		// Steps 2..4 each hit all nSC subcarriers, split across detectors.
		if ha, hb := a.PreprocessStats().CacheHits, b.PreprocessStats().CacheHits; ha+hb != 3*nSC {
			t.Fatalf("%s handoff hits = %d+%d, want %d total", bb.name, ha, hb, 3*nSC)
		}
	}
}

// TestReuseStateAliasedNotCopied pins where a frame's path sets live once
// a ReuseState is installed: a miss searches straight into the state's
// base and a hit selects that base in place. The slot's own store is
// never touched — the copy is gone, not moved.
func TestReuseStateAliasedNotCopied(t *testing.T) {
	cons := constellation.MustNew(16)
	const nSC = 4
	hs := frameChannels(63, 5, 4, nSC)
	for _, bb := range benchBackends {
		fc := New(cons, Options{NPE: 24, PathReuse: true, Backend: bb.backend})
		var st ReuseState
		fc.SetReuseState(&st)
		for _, outcome := range []string{"miss", "hit"} {
			if err := fc.PrepareAll(hs, 0.05); err != nil {
				t.Fatal(err)
			}
			for k := range hs {
				s := &fc.frame[k]
				if s.set != &st.slots[k].pathStore {
					t.Fatalf("%s %s: subcarrier %d does not select the state's own store", bb.name, outcome, k)
				}
				if s.own.logP != nil || s.own.paths != nil || s.own.plan.Nodes() != 0 {
					t.Fatalf("%s %s: subcarrier %d wrote the slot's own store", bb.name, outcome, k)
				}
			}
		}
		if pp := fc.PreprocessStats(); pp.CacheMisses != nSC || pp.CacheHits != nSC {
			t.Fatalf("%s: %d misses and %d hits, want %d of each", bb.name, pp.CacheMisses, pp.CacheHits, nSC)
		}
	}
}

// TestScalarAndFrameBasesAreSeparate interleaves scalar Prepare and
// PrepareAll on one detector with a ReuseState installed. Prepare keeps
// its own one-subcarrier base and PrepareAll the caller's state: neither
// reads nor writes the other's, so every hit and miss below is exact.
func TestScalarAndFrameBasesAreSeparate(t *testing.T) {
	cons := constellation.MustNew(16)
	const nSC = 4
	hs := frameChannels(64, 5, 4, nSC)
	hx := frameChannels(65, 5, 4, 1)[0]
	fc := New(cons, Options{NPE: 24, PathReuse: true})
	var st ReuseState
	fc.SetReuseState(&st)

	var hits, misses int64
	step := func(what string, prepare func() error, dHits, dMisses int64) {
		t.Helper()
		if err := prepare(); err != nil {
			t.Fatal(err)
		}
		hits, misses = hits+dHits, misses+dMisses
		if pp := fc.PreprocessStats(); pp.CacheHits != hits || pp.CacheMisses != misses {
			t.Fatalf("%s: %d hits and %d misses so far, want %d and %d", what, pp.CacheHits, pp.CacheMisses, hits, misses)
		}
	}
	frame := func() error { return fc.PrepareAll(hs, 0.05) }
	scalar := func(h *cmatrix.Matrix) func() error { return func() error { return fc.Prepare(h, 0.05) } }

	step("first frame", frame, 0, nSC)
	step("Prepare(hs[0]) does not read the state's base for subcarrier 0", scalar(hs[0]), 0, 1)
	step("Prepare(hs[0]) again hits its own base", scalar(hs[0]), 1, 0)
	step("Prepare(hx) re-bases its own base", scalar(hx), 0, 1)
	step("the frame again: Prepare wrote none of the state's bases", frame, nSC, 0)
	step("Prepare(hx) again: PrepareAll did not write Prepare's base", scalar(hx), 1, 0)
	if len(st.slots) != nSC || len(fc.scalarReuse.slots) != 1 {
		t.Fatalf("state of %d bases and scalar state of %d, want %d and 1", len(st.slots), len(fc.scalarReuse.slots), nSC)
	}

	// Without a state PrepareAll reads no base: not even Prepare's, which
	// holds subcarrier 0's channel.
	fc.SetReuseState(nil)
	step("Prepare(hs[0])", scalar(hs[0]), 0, 1)
	step("a frame without a state does not read Prepare's base", frame, 0, nSC)
	step("Prepare(hs[0]) still hits", scalar(hs[0]), 1, 0)
}

// TestPrepareIsTheOneSubcarrierFrame drives one channel/cap script twice:
// through scalar Prepare, and as one-subcarrier PrepareAll frames against
// a caller's ReuseState. Every step must leave the two detectors with
// the same paths, descent plan, operation counts and pre-processing
// statistics — coherence hits, prefix hits and coverage misses included.
func TestPrepareIsTheOneSubcarrierFrame(t *testing.T) {
	cons := constellation.MustNew(16)
	const npe = 24
	sigma2 := channel.Sigma2FromSNRdB(8, 1)
	chans := frameChannels(66, 5, 4, 3)
	caps := []int{0, 3, 8, 16, 40}
	for _, bb := range benchBackends {
		for _, reuse := range []bool{false, true} {
			for _, theta := range []float64{0, 0.95} {
				opts := Options{NPE: npe, Threshold: theta, PathReuse: reuse, Backend: bb.backend}
				scalar, framed := New(cons, opts), New(cons, opts)
				var st ReuseState
				framed.SetReuseState(&st)
				rng := newRng(67)
				for i := 0; i < 60; i++ {
					h, k := chans[rng.IntN(len(chans))], caps[rng.IntN(len(caps))]
					scalar.SetPathCap(k)
					framed.SetPathCap(k)
					if err := scalar.Prepare(h, sigma2); err != nil {
						t.Fatal(err)
					}
					if err := framed.PrepareAll([]*cmatrix.Matrix{h}, sigma2); err != nil {
						t.Fatal(err)
					}
					if err := framed.Select(0); err != nil {
						t.Fatal(err)
					}
					if !samePaths(scalar.Paths(), framed.Paths()) {
						t.Fatalf("%s reuse=%v θ=%g step %d: paths differ", bb.name, reuse, theta, i)
					}
					ps, pf := scalar.soa.prep.Plan, framed.soa.prep.Plan
					if ps.P != pf.P || ps.Nodes() != pf.Nodes() {
						t.Fatalf("%s reuse=%v θ=%g step %d: plan of %d leaves and %d nodes, the frame's has %d and %d",
							bb.name, reuse, theta, i, ps.P, ps.Nodes(), pf.P, pf.Nodes())
					}
					if a, b := scalar.OpCount(), framed.OpCount(); a != b {
						t.Fatalf("%s reuse=%v θ=%g step %d: OpCount %+v, the frame's %+v", bb.name, reuse, theta, i, a, b)
					}
					if a, b := scalar.PreprocessStats(), framed.PreprocessStats(); a != b {
						t.Fatalf("%s reuse=%v θ=%g step %d: PreprocessStats %+v, the frame's %+v", bb.name, reuse, theta, i, a, b)
					}
				}
				if pp := scalar.PreprocessStats(); reuse && (pp.CacheHits == 0 || pp.CacheMisses == 0) {
					t.Fatalf("%s θ=%g: script made %d hits and %d misses, want both", bb.name, theta, pp.CacheHits, pp.CacheMisses)
				}
			}
		}
	}
}

// TestReuseStateHitsOnEqualKey pins reuse on the model's own input, the
// level key real(R(l,l))·d/σ. Multiplying each column of H by one of ±1,
// ±j is exact in floating point: it changes R's off-diagonal entries but
// leaves every real(R(l,l)) bit-identical. So the rotated frame hits the
// state on every subcarrier, and its decisions and path sets (ranks and
// LogP bits) equal those of a detector without reuse.
func TestReuseStateHitsOnEqualKey(t *testing.T) {
	cons := constellation.MustNew(16)
	const nr, nt, nSC = 5, 4, 6
	sigma2 := channel.Sigma2FromSNRdB(16, 1)
	hs := frameChannels(91, nr, nt, nSC)
	units := [4]complex128{1, -1, 1i, -1i}
	rot := make([]*cmatrix.Matrix, nSC)
	for k, h := range hs {
		rot[k] = h.Copy()
		for j := 0; j < nt; j++ {
			u := units[(k+j+1)%4]
			for i := 0; i < nr; i++ {
				rot[k].Set(i, j, u*h.At(i, j))
			}
		}
		// The premise: R itself differs, so a key on R would miss.
		a, b := cmatrix.SortedQR(h, cmatrix.OrderSQRD), cmatrix.SortedQR(rot[k], cmatrix.OrderSQRD)
		if a.R.EqualApprox(b.R, 0) {
			t.Fatalf("subcarrier %d: rotating the columns left R unchanged", k)
		}
	}
	rng := newRng(92)
	ys := make([][]complex128, nSC)
	for k := range ys {
		ys[k] = transmit(rng, rot[k], cons, randSymbols(rng, cons, nt), sigma2)
	}

	for _, backend := range []Backend{BackendComplex128, BackendSoA32} {
		ref := New(cons, Options{NPE: 24, Backend: backend})
		fc := New(cons, Options{NPE: 24, PathReuse: true, Backend: backend})
		var st ReuseState
		fc.SetReuseState(&st)
		if err := fc.PrepareAll(hs, sigma2); err != nil {
			t.Fatal(err)
		}
		if err := fc.PrepareAll(rot, sigma2); err != nil {
			t.Fatal(err)
		}
		if pp := fc.PreprocessStats(); pp.CacheHits != nSC || pp.CacheMisses != nSC {
			t.Fatalf("%v: %d hits / %d misses, want %d / %d (every rotated subcarrier hits)",
				backend, pp.CacheHits, pp.CacheMisses, nSC, nSC)
		}
		if err := ref.PrepareAll(rot, sigma2); err != nil {
			t.Fatal(err)
		}
		for k := range rot {
			if err := fc.Select(k); err != nil {
				t.Fatal(err)
			}
			if err := ref.Select(k); err != nil {
				t.Fatal(err)
			}
			if !samePaths(fc.Paths(), ref.Paths()) {
				t.Fatalf("%v subcarrier %d: reused path set differs from a fresh search", backend, k)
			}
			got := append([]int(nil), fc.Detect(ys[k])...)
			if want := ref.Detect(ys[k]); !equalInts(got, want) {
				t.Fatalf("%v subcarrier %d: decisions %v, want %v", backend, k, got, want)
			}
		}
	}
}

// TestPrepareAt: preparing a frame one subcarrier at a time with
// PrepareAt — in order on one detector, or split between two helpers (odd
// and even k) against one state — is PrepareAll: path sets, decisions,
// the ReuseState after each frame, and every counter (the helpers'
// folded). Pairs of subcarriers share a channel, and each still reads
// only its own base. A subcarrier outside the frame and a state not
// grown to the frame are errors.
func TestPrepareAt(t *testing.T) {
	cons := constellation.MustNew(16)
	const nr, nt, nSC = 5, 4, 8
	sigma2 := channel.Sigma2FromSNRdB(16, 1)
	hs := frameChannels(91, nr, nt, nSC)
	for k := 1; k < nSC; k += 2 {
		hs[k] = hs[k-1]
	}
	rng := newRng(92)
	ys := make([][]complex128, nSC)
	for k := range ys {
		ys[k] = transmit(rng, hs[k], cons, randSymbols(rng, cons, nt), sigma2)
	}
	opts := Options{NPE: 24, PathReuse: true}
	// bases reads every slot of st as a probe prepared against it: each
	// is a hit, and hits leave the state as it was.
	bases := func(st *ReuseState) [][]Path {
		probe := New(cons, opts)
		probe.SetReuseState(st)
		if err := probe.PrepareAll(hs, sigma2); err != nil {
			t.Fatal(err)
		}
		if hits := probe.PreprocessStats().CacheHits; hits != nSC {
			t.Fatalf("probe: %d of %d subcarriers hit the state", hits, nSC)
		}
		out := make([][]Path, nSC)
		for k := range out {
			if err := probe.Select(k); err != nil {
				t.Fatal(err)
			}
			out[k] = clonePaths(probe.Paths())
		}
		return out
	}

	all := New(cons, opts)
	var allSt ReuseState
	all.SetReuseState(&allSt)
	at := New(cons, opts)
	var atSt ReuseState
	at.SetReuseState(&atSt)
	halves := [2]*FlexCore{New(cons, opts), New(cons, opts)}
	var splitSt ReuseState
	for _, h := range halves {
		h.SetReuseState(&splitSt)
	}
	for f := 0; f < 2; f++ { // the second frame re-sends the first: every subcarrier hits the state
		want := detectFrame(t, all, hs, ys, sigma2)
		wantPaths := make([][]Path, nSC)
		for k := range hs {
			if err := all.Select(k); err != nil {
				t.Fatal(err)
			}
			wantPaths[k] = clonePaths(all.Paths())
		}

		atSt.Grow(nSC)
		splitSt.Grow(nSC)
		for k := range hs {
			for _, d := range []*FlexCore{at, halves[k%2]} {
				if err := d.PrepareAt(hs, k, sigma2); err != nil {
					t.Fatal(err)
				}
				if got := d.Detect(ys[k]); !equalInts(got, want[k]) || !samePaths(d.Paths(), wantPaths[k]) {
					t.Fatalf("frame %d subcarrier %d: PrepareAt's path set or decision differs from PrepareAll's", f, k)
				}
			}
		}
		if at.PreprocessStats() != all.PreprocessStats() || at.OpCount() != all.OpCount() {
			t.Fatalf("frame %d: PrepareAt counters %+v %+v, PrepareAll %+v %+v", f, at.PreprocessStats(), at.OpCount(), all.PreprocessStats(), all.OpCount())
		}
		wantBases := bases(&allSt)
		for name, st := range map[string]*ReuseState{"in order": &atSt, "split": &splitSt} {
			for k, b := range bases(st) {
				if !samePaths(b, wantBases[k]) {
					t.Fatalf("frame %d, %s: the state's base %d differs from PrepareAll's", f, name, k)
				}
			}
		}
	}
	split := New(cons, opts)
	split.Fold(halves[1]) // counters are sums: helpers fold in any order
	split.Fold(halves[0])
	if split.PreprocessStats() != all.PreprocessStats() || split.OpCount() != all.OpCount() {
		t.Fatalf("split: counters %+v %+v, PrepareAll %+v %+v", split.PreprocessStats(), split.OpCount(), all.PreprocessStats(), all.OpCount())
	}

	for _, k := range []int{-1, nSC} {
		if err := at.PrepareAt(hs, k, sigma2); err == nil {
			t.Fatalf("subcarrier %d of a %d-subcarrier frame prepared", k, nSC)
		}
	}
	var short ReuseState
	at.SetReuseState(&short)
	if err := at.PrepareAt(hs, 0, sigma2); err == nil {
		t.Fatal("prepared against a state not grown to the frame")
	}
}
