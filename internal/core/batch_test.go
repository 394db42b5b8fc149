package core

import (
	"runtime"
	"sync"
	"testing"

	"flexcore/internal/channel"
	"flexcore/internal/constellation"
	"flexcore/internal/detector"
)

// Compile-time check: FlexCore implements the batch interface natively.
var _ detector.BatchDetector = (*FlexCore)(nil)

// makeBurst builds one prepared detector plus a burst of noisy received
// vectors with their transmitted symbols.
func makeBurst(t testing.TB, opts Options, nt, vectors int, seed uint64) (*FlexCore, [][]complex128, [][]int) {
	t.Helper()
	rng := newRng(seed)
	cons := constellation.MustNew(16)
	fc := New(cons, opts)
	sigma2 := channel.Sigma2FromSNRdB(14, 1)
	h := channel.Rayleigh(rng, nt, nt)
	if err := fc.Prepare(h, sigma2); err != nil {
		t.Fatal(err)
	}
	ys := make([][]complex128, vectors)
	sent := make([][]int, vectors)
	for v := range ys {
		sent[v] = randSymbols(rng, cons, nt)
		ys[v] = transmit(rng, h, cons, sent[v], sigma2)
	}
	return fc, ys, sent
}

func TestDetectBatchMatchesDetect(t *testing.T) {
	fc, ys, _ := makeBurst(t, Options{NPE: 32}, 8, 12, 301)
	want := make([][]int, len(ys))
	for v, y := range ys {
		want[v] = append([]int(nil), fc.Detect(y)...)
	}
	got := fc.DetectBatch(ys)
	if len(got) != len(ys) {
		t.Fatalf("%d results for %d vectors", len(got), len(ys))
	}
	for v := range got {
		if !equalInts(got[v], want[v]) {
			t.Fatalf("vector %d: batch %v, loop %v", v, got[v], want[v])
		}
	}
}

func TestDetectBatchEmptyAndSingle(t *testing.T) {
	fc, ys, _ := makeBurst(t, Options{NPE: 16}, 6, 1, 302)
	if got := fc.DetectBatch(nil); len(got) != 0 {
		t.Fatalf("nil burst returned %d results", len(got))
	}
	got := append([]int(nil), fc.DetectBatch(ys[:1])[0]...)
	want := fc.Detect(ys[0])
	if !equalInts(got, want) {
		t.Fatalf("single-vector burst: got %v want %v", got, want)
	}
}

func TestDetectBatchConcurrentInstances(t *testing.T) {
	// Separate instances must be independently usable from separate
	// goroutines (the simulator's per-worker-detector contract); run
	// under -race.
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			fc, ys, _ := makeBurst(t, Options{NPE: 24}, 6, 8, 303+uint64(g))
			for i := 0; i < 20; i++ {
				if got := fc.DetectBatch(ys); len(got) != len(ys) {
					t.Errorf("goroutine %d: %d results", g, len(got))
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestDetectSteadyStateAllocFree(t *testing.T) {
	fc, ys, _ := makeBurst(t, Options{NPE: 32}, 8, 4, 304)
	fc.Detect(ys[0]) // warm the scratch
	if n := testing.AllocsPerRun(50, func() { fc.Detect(ys[1]) }); n != 0 {
		t.Errorf("Detect: %.1f allocs/op in steady state", n)
	}
	fc.DetectBatch(ys)
	if n := testing.AllocsPerRun(50, func() { fc.DetectBatch(ys) }); n != 0 {
		t.Errorf("DetectBatch: %.1f allocs/op in steady state", n)
	}
}

// TestWorkersOptionStartsNoGoroutines pins the two stubs the frozen
// bench/ keeps alive: Options.Workers is ignored — no goroutine starts
// and decisions equal the unset option — and Close is a no-op after
// which the detector still works. It goes when they do.
func TestWorkersOptionStartsNoGoroutines(t *testing.T) {
	cons := constellation.MustNew(16)
	const nt, nSC, burst = 6, 8, 4
	hs := frameChannels(305, nt, nt, nSC)
	sigma2 := channel.Sigma2FromSNRdB(14, 1)
	rng := newRng(306)
	ys := make([][][]complex128, nSC)
	for k := range ys {
		for v := 0; v < burst; v++ {
			ys[k] = append(ys[k], transmit(rng, hs[k], cons, randSymbols(rng, cons, nt), sigma2))
		}
	}
	run := func(fc *FlexCore) (dec [][]int) {
		if err := fc.PrepareAll(hs, sigma2); err != nil {
			t.Fatal(err)
		}
		for k := range hs {
			if err := fc.Select(k); err != nil {
				t.Fatal(err)
			}
			for _, r := range fc.DetectBatch(ys[k]) {
				dec = append(dec, append([]int(nil), r...))
			}
		}
		return dec
	}
	for _, backend := range []Backend{BackendComplex128, BackendSoA32} {
		want := run(New(cons, Options{NPE: 24, Backend: backend}))
		before := runtime.NumGoroutine()
		fc := New(cons, Options{NPE: 24, Backend: backend, Workers: 4})
		got := run(fc)
		if n := runtime.NumGoroutine(); n != before {
			t.Fatalf("%v: Workers: 4 changed the goroutine count %d → %d", backend, before, n)
		}
		fc.Close()
		again := run(fc)
		for i := range want {
			if !equalInts(got[i], want[i]) || !equalInts(again[i], want[i]) {
				t.Fatalf("%v vector %d: Workers 4 decided %v, after Close %v, Workers 0 %v", backend, i, got[i], again[i], want[i])
			}
		}
	}
}

func TestBatchLoopAdapter(t *testing.T) {
	// The generic adapter must equal per-vector Detect for a detector
	// without a native batch path.
	rng := newRng(306)
	cons := constellation.MustNew(16)
	mmse := detector.NewMMSE(cons)
	b := detector.Batch(mmse)
	if _, native := detector.Detector(b).(*FlexCore); native {
		t.Fatal("adapter expected")
	}
	sigma2 := channel.Sigma2FromSNRdB(14, 1)
	h := channel.Rayleigh(rng, 6, 6)
	if err := b.Prepare(h, sigma2); err != nil {
		t.Fatal(err)
	}
	ys := make([][]complex128, 5)
	for v := range ys {
		ys[v] = transmit(rng, h, cons, randSymbols(rng, cons, 6), sigma2)
	}
	want := make([][]int, len(ys))
	for v, y := range ys {
		want[v] = append([]int(nil), mmse.Detect(y)...)
	}
	for v, got := range b.DetectBatch(ys) {
		if !equalInts(got, want[v]) {
			t.Fatalf("vector %d: %v want %v", v, got, want[v])
		}
	}
	// Batch on a native implementation returns it unchanged.
	fc := New(cons, Options{NPE: 8})
	if detector.Batch(fc) != detector.BatchDetector(fc) {
		t.Fatal("Batch re-wrapped a native BatchDetector")
	}
}

func TestDetectBatchEmptyNonNil(t *testing.T) {
	fc, _, _ := makeBurst(t, Options{NPE: 16}, 6, 1, 307)
	before := fc.OpCount()
	if got := fc.DetectBatch([][]complex128{}); len(got) != 0 {
		t.Fatalf("empty burst returned %d results", len(got))
	}
	if after := fc.OpCount(); after.Detections != before.Detections {
		t.Fatalf("empty burst counted %d detections", after.Detections-before.Detections)
	}
}

func TestDetectBatchGrowsArena(t *testing.T) {
	// A burst larger than any previous one must regrow the result arena
	// without corrupting results; a subsequent smaller burst reuses it.
	fc, ys, _ := makeBurst(t, Options{NPE: 24}, 6, 40, 308)
	want := make([][]int, len(ys))
	for v, y := range ys {
		want[v] = append([]int(nil), fc.Detect(y)...)
	}
	check := func(lo, hi int) {
		t.Helper()
		got := fc.DetectBatch(ys[lo:hi])
		if len(got) != hi-lo {
			t.Fatalf("[%d:%d]: %d results", lo, hi, len(got))
		}
		for v := range got {
			if !equalInts(got[v], want[lo+v]) {
				t.Fatalf("[%d:%d] vector %d: %v want %v", lo, hi, v, got[v], want[lo+v])
			}
		}
	}
	check(0, 3)       // small burst pre-grows a small arena
	check(0, len(ys)) // larger than the pre-grown arena
	check(5, 9)       // smaller again, reusing the big arena
}
