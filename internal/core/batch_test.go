package core

import (
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
	for _, workers := range []int{1, 4} {
		fc, ys, _ := makeBurst(t, Options{NPE: 32, Workers: workers}, 8, 12, 301)
		defer fc.Close()
		want := make([][]int, len(ys))
		for v, y := range ys {
			want[v] = append([]int(nil), fc.Detect(y)...)
		}
		got := fc.DetectBatch(ys)
		if len(got) != len(ys) {
			t.Fatalf("workers=%d: %d results for %d vectors", workers, len(got), len(ys))
		}
		for v := range got {
			if !equalInts(got[v], want[v]) {
				t.Fatalf("workers=%d vector %d: batch %v, loop %v", workers, v, got[v], want[v])
			}
		}
	}
}

func TestDetectBatchEmptyAndSingle(t *testing.T) {
	fc, ys, _ := makeBurst(t, Options{NPE: 16, Workers: 4}, 6, 1, 302)
	defer fc.Close()
	if got := fc.DetectBatch(nil); len(got) != 0 {
		t.Fatalf("nil burst returned %d results", len(got))
	}
	// A one-vector burst must not need the pool (batch fan-out is over
	// vectors, and one vector short-circuits to the sequential kernel).
	got := append([]int(nil), fc.DetectBatch(ys[:1])[0]...)
	if fc.pool != nil {
		t.Fatal("one-vector burst spun up the worker pool")
	}
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
			fc, ys, _ := makeBurst(t, Options{NPE: 24, Workers: 2}, 6, 8, 303+uint64(g))
			defer fc.Close()
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
	for _, workers := range []int{1, 4} {
		fc, ys, _ := makeBurst(t, Options{NPE: 32, Workers: workers}, 8, 4, 304)
		fc.Detect(ys[0]) // warm the scratch (and the pool, if any)
		if n := testing.AllocsPerRun(50, func() { fc.Detect(ys[1]) }); n != 0 {
			t.Errorf("Detect workers=%d: %.1f allocs/op in steady state", workers, n)
		}
		fc.DetectBatch(ys)
		if n := testing.AllocsPerRun(50, func() { fc.DetectBatch(ys) }); n != 0 {
			t.Errorf("DetectBatch workers=%d: %.1f allocs/op in steady state", workers, n)
		}
		fc.Close()
	}
}

func TestCloseIsRestartable(t *testing.T) {
	// The pool starts on the first fanned-out call — a burst; a single
	// Detect runs on the caller and never needs it.
	fc, ys, _ := makeBurst(t, Options{NPE: 32, Workers: 4}, 8, 6, 305)
	var want [][]int
	for _, r := range fc.DetectBatch(ys) {
		want = append(want, append([]int(nil), r...))
	}
	if fc.pool == nil {
		t.Fatal("parallel DetectBatch did not start the pool")
	}
	fc.Close()
	if fc.pool != nil {
		t.Fatal("Close left the pool attached")
	}
	fc.Close() // double Close is a no-op
	if got := fc.Detect(ys[0]); !equalInts(got, want[0]) || fc.pool != nil {
		t.Fatalf("Detect after Close: got %v want %v (pool restarted: %v)", got, want[0], fc.pool != nil)
	}
	for i, got := range fc.DetectBatch(ys) {
		if !equalInts(got, want[i]) {
			t.Fatalf("after Close: vector %d got %v want %v", i, got, want[i])
		}
	}
	if fc.pool == nil {
		t.Fatal("DetectBatch after Close did not restart the pool")
	}
	fc.Close()
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
	fc, _, _ := makeBurst(t, Options{NPE: 16, Workers: 4}, 6, 1, 307)
	defer fc.Close()
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
	for _, workers := range []int{1, 4} {
		fc, ys, _ := makeBurst(t, Options{NPE: 24, Workers: workers}, 6, 40, 308)
		want := make([][]int, len(ys))
		for v, y := range ys {
			want[v] = append([]int(nil), fc.Detect(y)...)
		}
		check := func(lo, hi int) {
			t.Helper()
			got := fc.DetectBatch(ys[lo:hi])
			if len(got) != hi-lo {
				t.Fatalf("workers=%d [%d:%d]: %d results", workers, lo, hi, len(got))
			}
			for v := range got {
				if !equalInts(got[v], want[lo+v]) {
					t.Fatalf("workers=%d [%d:%d] vector %d: %v want %v", workers, lo, hi, v, got[v], want[lo+v])
				}
			}
		}
		check(0, 3)       // small burst pre-grows a small arena
		check(0, len(ys)) // larger than the pre-grown arena
		check(5, 9)       // smaller again, reusing the big arena
		fc.Close()
	}
}

func TestDetectBatchAfterClose(t *testing.T) {
	// Close is a quiescing point, not a terminal state: the batch path
	// must keep working afterwards, restarting the pool on demand.
	fc, ys, _ := makeBurst(t, Options{NPE: 24, Workers: 4}, 6, 8, 309)
	res := fc.DetectBatch(ys)
	want := make([][]int, len(res))
	for v := range res {
		want[v] = append([]int(nil), res[v]...)
	}
	fc.Close()
	if fc.pool != nil {
		t.Fatal("Close left the pool attached")
	}
	got := fc.DetectBatch(ys)
	for v := range got {
		if !equalInts(got[v], want[v]) {
			t.Fatalf("after Close, vector %d: %v want %v", v, got[v], want[v])
		}
	}
	if fc.pool == nil {
		t.Fatal("DetectBatch after Close did not restart the pool")
	}
	fc.Close()
}
