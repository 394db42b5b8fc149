package core

import (
	"sync"
	"testing"

	"flexcore/internal/channel"
	"flexcore/internal/cmatrix"
	"flexcore/internal/constellation"
)

// frameChannels draws one correlated OFDM frame: nSC per-subcarrier
// channels sharing the default indoor delay taps, so adjacent
// subcarriers are coherent the way real frames are.
func frameChannels(seed uint64, nr, nt, nSC int) []*cmatrix.Matrix {
	rng := channel.NewRNG(seed)
	sc := make([]int, nSC)
	for i := range sc {
		sc[i] = i + 1
	}
	return channel.FreqSelective(rng, nr, nt, sc, channel.DefaultIndoorTDL)
}

// clonePaths deep-copies a detector's selected path set (the live set
// aliases detector-owned arenas).
func clonePaths(ps []Path) []Path {
	out := make([]Path, len(ps))
	for i, p := range ps {
		out[i] = Path{Ranks: append([]int(nil), p.Ranks...), LogP: p.LogP}
	}
	return out
}

// samePaths reports bit-identity of two path sets (ranks and LogP).
func samePaths(a, b []Path) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].LogP != b[i].LogP || !equalInts(a[i].Ranks, b[i].Ranks) {
			return false
		}
	}
	return true
}

// framePrepareReference runs the scalar Prepare loop over a frame and
// records per-subcarrier paths and detection outputs — the sequential
// baseline every fast-path variant must reproduce.
func framePrepareReference(t *testing.T, cons *constellation.Constellation, opts Options,
	hs []*cmatrix.Matrix, ys [][]complex128, sigma2 float64) (paths [][]Path, det [][]int) {
	t.Helper()
	ref := New(cons, opts)
	paths = make([][]Path, len(hs))
	det = make([][]int, len(hs))
	for k, h := range hs {
		if err := ref.Prepare(h, sigma2); err != nil {
			t.Fatal(err)
		}
		paths[k] = clonePaths(ref.Paths())
		det[k] = append([]int(nil), ref.Detect(ys[k])...)
	}
	return paths, det
}

// TestPrepareAllMatchesLoopedPrepare pins slot independence. Scalar
// Prepare is the one-subcarrier frame, so this compares one
// K-subcarrier frame with K one-subcarrier frames: with the coherence
// cache disabled, what a slot holds must not depend on the slots
// prepared before it in the frame — same position vectors (ranks and
// log-probabilities bit for bit) and same detection decisions.
func TestPrepareAllMatchesLoopedPrepare(t *testing.T) {
	cons := constellation.MustNew(16)
	const nt, nSC = 6, 24
	hs := frameChannels(11, nt, nt, nSC)
	sigma2 := channel.Sigma2FromSNRdB(14, 1)
	rng := newRng(77)
	ys := make([][]complex128, nSC)
	for k := range ys {
		ys[k] = transmit(rng, hs[k], cons, randSymbols(rng, cons, nt), sigma2)
	}
	wantPaths, wantDet := framePrepareReference(t, cons, Options{NPE: 32}, hs, ys, sigma2)

	fc := New(cons, Options{NPE: 32})
	// Two rounds: the second exercises the steady-state pooled arenas.
	for round := 0; round < 2; round++ {
		if err := fc.PrepareAll(hs, sigma2); err != nil {
			t.Fatal(err)
		}
		if err := fc.Select(nSC); err == nil {
			t.Fatalf("Select(%d) past a %d-subcarrier frame accepted", nSC, nSC)
		}
		for k := range hs {
			if err := fc.Select(k); err != nil {
				t.Fatal(err)
			}
			if !samePaths(fc.Paths(), wantPaths[k]) {
				t.Fatalf("round %d subcarrier %d: paths differ from looped Prepare", round, k)
			}
			if got := fc.Detect(ys[k]); !equalInts(got, wantDet[k]) {
				t.Fatalf("round %d subcarrier %d: Detect %v, want %v", round, k, got, wantDet[k])
			}
		}
	}
}

// TestPathReuseThresholdZeroExact pins the output-neutrality guarantee of
// the coherence cache: it fires only on a bit-identical level key, so
// enabling it can never change any output, nor the OpCount — here on a
// frame re-sent against a ReuseState, so every subcarrier of the second
// frame hits.
func TestPathReuseThresholdZeroExact(t *testing.T) {
	cons := constellation.MustNew(16)
	const nt, nSC = 5, 12
	hs := frameChannels(23, nt, nt, nSC)
	sigma2 := channel.Sigma2FromSNRdB(15, 1)
	rng := newRng(99)
	ys := make([][]complex128, len(hs))
	for k := range ys {
		ys[k] = transmit(rng, hs[k], cons, randSymbols(rng, cons, nt), sigma2)
	}
	wantPaths, wantDet := framePrepareReference(t, cons, Options{NPE: 24}, hs, ys, sigma2)

	fc := New(cons, Options{NPE: 24, PathReuse: true})
	var st ReuseState
	fc.SetReuseState(&st)
	plain := New(cons, Options{NPE: 24})
	for f := 0; f < 2; f++ {
		if err := fc.PrepareAll(hs, sigma2); err != nil {
			t.Fatal(err)
		}
		detectFrame(t, plain, hs, ys, sigma2)
		for k := range hs {
			if err := fc.Select(k); err != nil {
				t.Fatal(err)
			}
			if !samePaths(fc.Paths(), wantPaths[k]) {
				t.Fatalf("frame %d subcarrier %d: reuse-enabled paths differ", f, k)
			}
			if got := fc.Detect(ys[k]); !equalInts(got, wantDet[k]) {
				t.Fatalf("frame %d subcarrier %d: reuse-enabled Detect %v, want %v", f, k, got, wantDet[k])
			}
		}
	}
	if pp := fc.PreprocessStats(); pp.CacheHits != nSC || pp.CacheMisses != nSC {
		t.Fatalf("%d hits and %d misses, want %d of each (the re-sent frame hits everywhere)", pp.CacheHits, pp.CacheMisses, nSC)
	}
	if a, b := fc.OpCount(), plain.OpCount(); a != b {
		t.Fatalf("reuse changed the OpCount: %+v, without reuse %+v", a, b)
	}
}

// TestScalarPrepareReuse covers the cache on the scalar Prepare path:
// re-preparing the identical channel is a hit with identical outputs, a
// different channel is a miss, and a hit performs zero allocations in
// steady state.
func TestScalarPrepareReuse(t *testing.T) {
	cons := constellation.MustNew(64)
	const nt = 6
	rng := newRng(55)
	h1 := channel.Rayleigh(rng, nt, nt)
	h2 := channel.Rayleigh(rng, nt, nt)
	sigma2 := channel.Sigma2FromSNRdB(20, 1)
	y := transmit(rng, h1, cons, randSymbols(rng, cons, nt), sigma2)

	fc := New(cons, Options{NPE: 64, PathReuse: true})
	if err := fc.Prepare(h1, sigma2); err != nil {
		t.Fatal(err)
	}
	want := clonePaths(fc.Paths())
	wantDet := append([]int(nil), fc.Detect(y)...)

	if err := fc.Prepare(h1, sigma2); err != nil {
		t.Fatal(err)
	}
	if pp := fc.PreprocessStats(); pp.CacheHits != 1 || pp.CacheMisses != 1 {
		t.Fatalf("after identical re-Prepare: hits=%d misses=%d, want 1/1", pp.CacheHits, pp.CacheMisses)
	}
	if !samePaths(fc.Paths(), want) || !equalInts(fc.Detect(y), wantDet) {
		t.Fatal("cache hit changed the detector output")
	}

	if err := fc.Prepare(h2, sigma2); err != nil {
		t.Fatal(err)
	}
	if pp := fc.PreprocessStats(); pp.CacheMisses != 2 {
		t.Fatalf("different channel counted as a hit (misses=%d)", pp.CacheMisses)
	}

	// Steady state: a cached re-Prepare allocates nothing.
	if err := fc.Prepare(h2, sigma2); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if err := fc.Prepare(h2, sigma2); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("cached re-Prepare allocates %.1f objects/op, want 0", allocs)
	}
}

// TestPrepareReplacesFrame pins Prepare as the one-subcarrier frame: after
// a PrepareAll of another geometry it replaces the prepared frame rather
// than leaving it half-selected — Select(1) is outside the one-slot
// frame, and Select(0) re-selects the scalar channel with the stream
// count and scratch that go with it (it used to re-select the stale 4×4
// slot under the 6×6 scratch, and Detect panicked).
func TestPrepareReplacesFrame(t *testing.T) {
	cons := constellation.MustNew(16)
	sigma2 := channel.Sigma2FromSNRdB(16, 1)
	frame := frameChannels(341, 4, 4, 3)
	rng := newRng(342)
	h := channel.Rayleigh(rng, 6, 6)
	y := transmit(rng, h, cons, randSymbols(rng, cons, 6), sigma2)
	for _, bb := range benchBackends {
		ref := New(cons, Options{NPE: 24, Backend: bb.backend})
		if err := ref.Prepare(h, sigma2); err != nil {
			t.Fatal(err)
		}
		want := append([]int(nil), ref.Detect(y)...)

		fc := New(cons, Options{NPE: 24, Backend: bb.backend})
		if err := fc.PrepareAll(frame, sigma2); err != nil {
			t.Fatal(err)
		}
		if err := fc.Prepare(h, sigma2); err != nil {
			t.Fatal(err)
		}
		if err := fc.Select(1); err == nil {
			t.Fatalf("%s: Select(1) accepted after Prepare replaced the frame", bb.name)
		}
		if err := fc.Select(0); err != nil {
			t.Fatal(err)
		}
		if got := fc.Detect(y); !equalInts(got, want) {
			t.Fatalf("%s: Detect after PrepareAll(4×4), Prepare(6×6), Select(0): %v, want %v", bb.name, got, want)
		}
	}
}

// TestPrepareAllConcurrent is the race test: several detectors, one per
// goroutine, run PrepareAll/Select/Detect on shared immutable channel
// data concurrently. Run under -race in CI.
func TestPrepareAllConcurrent(t *testing.T) {
	cons := constellation.MustNew(16)
	const nt, nSC = 4, 12
	hs := frameChannels(47, nt, nt, nSC)
	sigma2 := channel.Sigma2FromSNRdB(14, 1)
	rng := newRng(48)
	ys := make([][]complex128, nSC)
	for k := range ys {
		ys[k] = transmit(rng, hs[k], cons, randSymbols(rng, cons, nt), sigma2)
	}
	_, wantDet := framePrepareReference(t, cons, Options{NPE: 16}, hs, ys, sigma2)

	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fc := New(cons, Options{NPE: 16})
			for round := 0; round < 5; round++ {
				if err := fc.PrepareAll(hs, sigma2); err != nil {
					errs <- err
					return
				}
				for k := range hs {
					if err := fc.Select(k); err != nil {
						errs <- err
						return
					}
					if got := fc.Detect(ys[k]); !equalInts(got, wantDet[k]) {
						t.Errorf("concurrent frame: subcarrier %d diverged", k)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestPrepareAllValidation pins the error contract of the frame API.
func TestPrepareAllValidation(t *testing.T) {
	cons := constellation.MustNew(4)
	fc := New(cons, Options{NPE: 4})
	if err := fc.PrepareAll(nil, 0.1); err == nil {
		t.Fatal("empty frame accepted")
	}
	if err := fc.Select(0); err == nil {
		t.Fatal("Select before PrepareAll accepted")
	}
	mixed := []*cmatrix.Matrix{cmatrix.Identity(3), cmatrix.Identity(4)}
	if err := fc.PrepareAll(mixed, 0.1); err == nil {
		t.Fatal("mixed-geometry frame accepted")
	}
	wide := []*cmatrix.Matrix{cmatrix.New(2, 4)}
	if err := fc.PrepareAll(wide, 0.1); err == nil {
		t.Fatal("underdetermined frame accepted")
	}
	ok := []*cmatrix.Matrix{cmatrix.Identity(3), cmatrix.Identity(3)}
	if err := fc.PrepareAll(ok, 0.1); err != nil {
		t.Fatal(err)
	}
	if err := fc.Select(2); err == nil {
		t.Fatal("Select past the frame accepted")
	}
	if err := fc.Select(-1); err == nil {
		t.Fatal("negative Select accepted")
	}
}
