package phy

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"flexcore/internal/cmatrix"
	"flexcore/internal/constellation"
	"flexcore/internal/core"
	"flexcore/internal/detector"
)

// goid returns the calling goroutine's id, read from its stack header.
func goid() int {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	f := bytes.Fields(buf)
	id, _ := strconv.Atoi(string(f[1]))
	return id
}

// withProcs runs fn at GOMAXPROCS procs.
func withProcs(procs int, fn func()) {
	prev := runtime.GOMAXPROCS(procs)
	defer runtime.GOMAXPROCS(prev)
	fn()
}

// stripeRun is everything a run of frames shows its caller: what emit
// saw, where, and the counters afterwards.
type stripeRun struct {
	order     []int     // k of every emit call, across the frames
	decisions [][][]int // per emit call, copied
	offCaller int       // emit calls not on the DetectFrame caller's goroutine
	ops       detector.OpCount
	pp        core.PreprocessStats
	cumBits   uint64
	fallbacks int64
	activeSum float64
	activeN   int64
	lanes     int // helper lanes the FrameDetector made
}

// runStripes detects frames on a fresh FrameDetector over core.New(cons,
// opts) at GOMAXPROCS procs, capped at pathCap for the first frame and
// uncapped after.
func runStripes(t *testing.T, procs int, cons *constellation.Constellation, opts core.Options, pathCap int, hs [][]*cmatrix.Matrix, ys [][][][]complex128) stripeRun {
	t.Helper()
	var run stripeRun
	withProcs(procs, func() {
		det := core.New(cons, opts)
		fd := NewFrameDetector(det)
		caller := goid()
		for f := range hs {
			fd.SetPathCap(pathCap)
			if f > 0 {
				fd.SetPathCap(0)
			}
			err := fd.DetectFrame(hs[f], 0.1, func(k int) [][]complex128 { return ys[f][k] }, func(k int, decisions [][]int) {
				run.order = append(run.order, k)
				if goid() != caller {
					run.offCaller++
				}
				cp := make([][]int, len(decisions))
				for s, d := range decisions {
					cp[s] = append([]int(nil), d...)
				}
				run.decisions = append(run.decisions, cp)
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		run.ops, run.pp, run.fallbacks = det.OpCount(), det.PreprocessStats(), det.FallbackDetections()
		run.cumBits = math.Float64bits(run.pp.CumulativeProb)
		run.activeSum, run.activeN = fd.ActivePEs()
		run.lanes = len(fd.lanes)
	})
	return run
}

// TestStripedFrameMatchesOneLane: a frame striped over helper detectors
// hands emit the same decisions, in the same k order, on the caller's
// goroutine, and leaves every counter as the same frames run as one
// stripe at GOMAXPROCS 1 — across frame sizes, burst lengths, backends,
// a path cap lifted between frames, a-FlexCore, strict deactivation
// and a burst that forces the clamped-SIC fallback.
func TestStripedFrameMatchesOneLane(t *testing.T) {
	const nr, nt, procs = 4, 3, 4
	cons := constellation.MustNew(16)
	variants := []struct {
		name    string
		opts    core.Options
		pathCap int
		far     bool // scale the odd subcarriers' bursts far outside the constellation
	}{
		{name: "plain", opts: core.Options{NPE: 16}},
		{name: "cap", opts: core.Options{NPE: 16}, pathCap: 5},
		{name: "theta", opts: core.Options{NPE: 16, Threshold: 0.95}},
		{name: "strict", opts: core.Options{NPE: 16, StrictDeactivation: true}},
		{name: "fallback", opts: core.Options{NPE: 16, StrictDeactivation: true}, far: true},
	}
	for _, b := range []core.Backend{core.BackendComplex128, core.BackendSoA32} {
		for _, v := range variants {
			for _, k := range []int{1, 2, 3, 7, 48} {
				for _, s := range []int{1, 4} {
					t.Run(fmt.Sprintf("%s/%s/K%d/S%d", b, v.name, k, s), func(t *testing.T) {
						var hs [][]*cmatrix.Matrix
						var ys [][][][]complex128
						for f := 0; f < 2; f++ {
							h, y := frameCase(t, uint64(0x57a0+100*k+10*s+f), nr, nt, k, s)
							if v.far {
								for ki := 1; ki < k; ki += 2 {
									for _, vec := range y[ki] {
										for i := range vec {
											vec[i] *= 100
										}
									}
								}
							}
							hs, ys = append(hs, h), append(ys, y)
						}
						opts := v.opts
						opts.Backend = b
						one := runStripes(t, 1, cons, opts, v.pathCap, hs, ys)
						many := runStripes(t, procs, cons, opts, v.pathCap, hs, ys)
						if want := min(k, procs) - 1; many.lanes != want || one.lanes != 0 {
							t.Fatalf("helper lanes: %d at GOMAXPROCS %d, %d at 1; want %d and 0", many.lanes, procs, one.lanes, want)
						}
						if many.offCaller != 0 || one.offCaller != 0 {
							t.Fatalf("emit ran off the caller's goroutine %d times", many.offCaller)
						}
						if v.far && one.fallbacks == 0 && k > 1 {
							t.Fatal("the far bursts never fell back")
						}
						one.lanes, many.lanes = 0, 0
						if !reflect.DeepEqual(one, many) {
							t.Fatalf("striped run differs from one stripe:\n one  %+v %+v %d %v/%d\n many %+v %+v %d %v/%d\n order %v\n    vs %v",
								one.ops, one.pp, one.fallbacks, one.activeSum, one.activeN,
								many.ops, many.pp, many.fallbacks, many.activeSum, many.activeN, one.order, many.order)
						}
					})
				}
			}
		}
	}
}

// stripedBurst returns a burst over ys that marks striped when it runs
// while the frames in flight hold more than one core: with one caller,
// while its frame runs striped.
func stripedBurst(ys [][][]complex128, striped *atomic.Bool) func(k int) [][]complex128 {
	return func(k int) [][]complex128 {
		if coresInUse.Load() > 1 {
			striped.Store(true)
		}
		return ys[k]
	}
}

// TestStripedFrameScope: a PathReuse detector and any detector other
// than a plain FlexCore never stripe, and no helper goroutine outlives
// the frames that started them.
func TestStripedFrameScope(t *testing.T) {
	const k = 48
	cons := constellation.MustNew(16)
	hs, ys := frameCase(t, 0x57b1, 4, 3, k, 2)
	var striped atomic.Bool
	burst := stripedBurst(ys, &striped)
	emit := func(int, [][]int) {}
	withProcs(4, func() {
		for _, det := range []detector.Detector{
			core.New(cons, core.Options{NPE: 16, PathReuse: true}),
			core.New(cons, core.Options{NPE: 16, PathReuse: true, ReuseThreshold: 0.1}),
			detector.NewMMSE(cons),
		} {
			fd := NewFrameDetector(det)
			for i := 0; i < 3; i++ {
				if err := fd.DetectFrame(hs, 0.1, burst, emit); err != nil {
					t.Fatal(err)
				}
			}
			if len(fd.lanes) != 0 {
				t.Errorf("%s: %d helper lanes, want none", det.Name(), len(fd.lanes))
			}
		}

		det := core.New(cons, core.Options{NPE: 16})
		fd := NewFrameDetector(det)
		before := runtime.NumGoroutine()
		for i := 0; i < 100; i++ {
			striped.Store(false)
			if err := fd.DetectFrame(hs, 0.1, burst, emit); err != nil {
				t.Fatal(err)
			}
			if !striped.Load() {
				t.Fatalf("frame %d ran as one stripe", i)
			}
		}
		// A helper marks its lane joined on its way out; give the last
		// ones the moment they need to return.
		after := runtime.NumGoroutine()
		for deadline := time.Now().Add(2 * time.Second); after != before && time.Now().Before(deadline); after = runtime.NumGoroutine() {
			time.Sleep(time.Millisecond)
		}
		if after != before {
			t.Fatalf("%d goroutines after 100 striped frames, %d before", after, before)
		}
	})
}

// TestStripedFrameAllocFree gates what testing.AllocsPerRun cannot see
// (it pins GOMAXPROCS to 1, so every frame it measures is one stripe):
// warm frames striped over helper detectors, helper goroutines and the
// hand-off included, make no heap allocation on either backend.
//
// The runtime's own caches of goroutines, threads and wait-queue entries
// still grow now and then, as helpers exit on a P other than the one
// that starts the next — a few mallocs in thousands of frames, in no
// fixed frame. So the gate reads up to five windows of 50 frames and
// needs one at 0 mallocs: one allocation per frame reads ≥ 50 in every
// window.
func TestStripedFrameAllocFree(t *testing.T) {
	if runtime.NumCPU() < 2 {
		t.Skip("a striped frame needs two cores: this host has one")
	}
	const k, frames, windows = 48, 50, 5
	cons := constellation.MustNew(16)
	hs, ys := frameCase(t, 0x57c1, 4, 3, k, 4)
	var striped atomic.Bool
	burst := stripedBurst(ys, &striped)
	emit := func(int, [][]int) {}
	withProcs(2, func() {
		for _, b := range []core.Backend{core.BackendComplex128, core.BackendSoA32} {
			det := core.New(cons, core.Options{NPE: 16, Backend: b})
			fd := NewFrameDetector(det)
			for i := 0; i < 200; i++ {
				if err := fd.DetectFrame(hs, 0.1, burst, emit); err != nil {
					t.Fatal(err)
				}
			}
			var mallocs []uint64
			for w := 0; w < windows && (w == 0 || mallocs[w-1] != 0); w++ {
				stripedFrames := 0
				var m0, m1 runtime.MemStats
				runtime.ReadMemStats(&m0)
				for i := 0; i < frames; i++ {
					striped.Store(false)
					if err := fd.DetectFrame(hs, 0.1, burst, emit); err != nil {
						t.Fatal(err)
					}
					if striped.Load() {
						stripedFrames++
					}
				}
				runtime.ReadMemStats(&m1)
				if stripedFrames != frames {
					t.Fatalf("%s: %d of %d frames striped, want all", b, stripedFrames, frames)
				}
				mallocs = append(mallocs, m1.Mallocs-m0.Mallocs)
			}
			if mallocs[len(mallocs)-1] != 0 {
				t.Errorf("%s: mallocs per window of %d striped frames %v, want a window at 0", b, frames, mallocs)
			}
		}
	})
}

// TestStripedFrameTakesIdleCoresOnly: a frame stripes only over the cores the
// frames already in flight leave idle, and a striped frame holds one core
// per stripe. At GOMAXPROCS 4, a frame that arrives while another runs
// in 2, 3 or 4 stripes takes 2, 1 or 1 — its caller's own core — so the
// stripes in flight outnumber the cores only when the callers do.
func TestStripedFrameTakesIdleCoresOnly(t *testing.T) {
	const procs = 4
	cons := constellation.MustNew(16)
	hs, ys := frameCase(t, 0x57d1, 4, 3, 48, 1)
	// run detects hs[:k] and reports on how many goroutines burst ran,
	// calling hold(k) first in every burst.
	run := func(k int, hold func(k int)) (int, error) {
		var mu sync.Mutex
		seen := map[int]bool{}
		err := NewFrameDetector(core.New(cons, core.Options{NPE: 16})).DetectFrame(hs[:k], 0.1, func(k int) [][]complex128 {
			mu.Lock()
			seen[goid()] = true
			mu.Unlock()
			hold(k)
			return ys[k]
		}, func(int, [][]int) {})
		return len(seen), err
	}
	withProcs(procs, func() {
		for _, first := range []int{2, 3, 48} {
			held, release := make(chan struct{}), make(chan struct{})
			type result struct {
				stripes int
				err     error
			}
			done := make(chan result)
			go func() {
				// subcarrier 0 runs on the caller, after every helper
				// stripe was handed off: hold the frame there.
				n, err := run(first, func(k int) {
					if k == 0 {
						close(held)
						<-release
					}
				})
				done <- result{n, err}
			}()
			<-held
			second, err := run(48, func(int) {})
			close(release)
			a := <-done
			if err != nil || a.err != nil {
				t.Fatal(err, a.err)
			}
			want := max(1, procs-min(first, procs))
			if a.stripes != min(first, procs) || second != want {
				t.Errorf("a %d-subcarrier frame in flight ran %d stripes and the next frame %d; want %d and %d",
					first, a.stripes, second, min(first, procs), want)
			}
			if n := coresInUse.Load(); n != 0 {
				t.Fatalf("%d cores held after both frames returned", n)
			}
		}
	})
}
