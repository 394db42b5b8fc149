package phy

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"flexcore/internal/channel"
	"flexcore/internal/cmatrix"
	"flexcore/internal/constellation"
	"flexcore/internal/core"
	"flexcore/internal/detector"
)

// goidBufs are goid's scratch. A caller takes a free one with a
// compare-and-swap, so that reading a goroutine's id neither allocates
// nor parks — an alloc gate may read it on every lane at once.
var goidBufs [8]struct {
	busy atomic.Bool
	buf  [64]byte
}

// goid returns the calling goroutine's id, read from its stack header.
func goid() int {
	for i := 0; ; i = (i + 1) % len(goidBufs) {
		b := &goidBufs[i]
		if !b.busy.CompareAndSwap(false, true) {
			continue
		}
		id := 0
		for _, c := range b.buf[len("goroutine "):runtime.Stack(b.buf[:], false)] {
			if c < '0' || c > '9' {
				break
			}
			id = id*10 + int(c-'0')
		}
		b.busy.Store(false)
		return id
	}
}

// withProcs runs fn at GOMAXPROCS procs.
func withProcs(procs int, fn func()) {
	prev := runtime.GOMAXPROCS(procs)
	defer runtime.GOMAXPROCS(prev)
	fn()
}

// stripeRun is everything a run of frames shows its caller: what emit
// saw, where, the ReuseState after each frame — the path sets its frames
// were detected against — and the counters afterwards.
type stripeRun struct {
	order     []int       // k of every emit call, across the frames; k and s for a soft frame
	decisions [][][]int   // per emit call, copied
	llrBits   [][]uint64  // per soft emit call, every LLR's bits
	offCaller int         // emit calls not on the DetectFrame caller's goroutine
	state     [][]pathSet // per frame and subcarrier, the installed ReuseState's base after the frame
	ops       detector.OpCount
	pp        core.PreprocessStats
	fallbacks int64
	lanes     int // helper lanes the FrameDetector made
}

// pathSet is a copy of a selected path set: rank vectors and LogP bits.
type pathSet struct {
	ranks [][]int
	logP  []uint64
}

// selectedPaths copies the path set det has selected.
func selectedPaths(det *core.FlexCore) pathSet {
	var ps pathSet
	for _, p := range det.Paths() {
		ps.ranks = append(ps.ranks, append([]int(nil), p.Ranks...))
		ps.logP = append(ps.logP, math.Float64bits(p.LogP))
	}
	return ps
}

// stateBases returns the path set every slot of st holds for the frame
// hs, as a probe detector prepared against st under the path cap the
// frame ran at reads it — a base keyed on the frame's channel under that
// cap is a hit on every subcarrier, and a hit leaves the state as it was.
// It is the set each subcarrier of the frame was detected against: the
// base it hit, or searched into.
func stateBases(t *testing.T, cons *constellation.Constellation, opts core.Options, pathCap int, st *core.ReuseState, hs []*cmatrix.Matrix) []pathSet {
	t.Helper()
	probe := core.New(cons, opts)
	probe.SetPathCap(pathCap)
	probe.SetReuseState(st)
	if err := probe.PrepareAll(hs, 0.1); err != nil {
		t.Fatal(err)
	}
	if pp := probe.PreprocessStats(); pp.CacheHits != int64(len(hs)) {
		t.Fatalf("the ReuseState after the frame is not based on it: %d of %d subcarriers hit", pp.CacheHits, len(hs))
	}
	out := make([]pathSet, len(hs))
	for k := range hs {
		if err := probe.Select(k); err != nil {
			t.Fatal(err)
		}
		out[k] = selectedPaths(probe)
	}
	return out
}

// stripeCase is what a run of frames varies besides the frames: the
// detector's options, a path cap on the first frame, a ReuseState
// installed for every frame, and soft output.
type stripeCase struct {
	opts    core.Options
	pathCap int
	state   bool
	soft    bool
}

// runStripes detects frames on a fresh FrameDetector over core.New(cons,
// c.opts) at GOMAXPROCS procs, capped at c.pathCap for the first frame
// and uncapped after.
func runStripes(t *testing.T, procs int, cons *constellation.Constellation, c stripeCase, hs [][]*cmatrix.Matrix, ys [][][][]complex128) stripeRun {
	t.Helper()
	var run stripeRun
	withProcs(procs, func() {
		det := core.New(cons, c.opts)
		fd := NewFrameDetector(det)
		var st core.ReuseState
		if c.state {
			fd.SetReuseState(&st)
		}
		caller := goid()
		for f := range hs {
			pathCap := c.pathCap
			if f > 0 {
				pathCap = 0
			}
			fd.SetPathCap(pathCap)
			burst := func(k int) [][]complex128 { return ys[f][k] }
			var err error
			if c.soft {
				err = fd.DetectFrameSoft(hs[f], 0.1, burst, func(k, s int, got []int, llrs [][]float64) {
					run.order = append(run.order, k, s)
					if goid() != caller {
						run.offCaller++
					}
					run.decisions = append(run.decisions, [][]int{append([]int(nil), got...)})
					var bits []uint64
					for _, r := range llrs {
						for _, l := range r {
							bits = append(bits, math.Float64bits(l))
						}
					}
					run.llrBits = append(run.llrBits, bits)
				})
			} else {
				err = fd.DetectFrame(hs[f], 0.1, burst, func(k int, decisions [][]int) {
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
			}
			if err != nil {
				t.Fatal(err)
			}
			if c.state {
				run.state = append(run.state, stateBases(t, cons, c.opts, pathCap, &st, hs[f]))
			}
		}
		run.ops, run.pp, run.fallbacks = det.OpCount(), det.PreprocessStats(), det.FallbackDetections()
		run.lanes = len(fd.lanes)
	})
	return run
}

// TestStripedFrameMatchesOneLane: a frame striped over helper detectors
// hands emit the same decisions — a soft frame the same LLR bits — in
// the same k order, on the caller's goroutine, leaves an installed
// ReuseState holding the same bases — the path sets (ranks and LogP
// bits) its subcarriers were detected against — and leaves every counter
// as the same frames run as one stripe at GOMAXPROCS 1, at GOMAXPROCS 2
// and 4 — across frame sizes, burst lengths, backends, a path cap lifted
// between frames, a-FlexCore, strict deactivation, a burst that forces
// the clamped-SIC fallback, PathReuse with and without a ReuseState (a
// re-sent frame hits it on every subcarrier), subcarriers that share a
// level key ("shared": each reads only its own base, so the reuse
// counters match too) and soft output.
func TestStripedFrameMatchesOneLane(t *testing.T) {
	const nr, nt = 4, 3
	cons := constellation.MustNew(16)
	reuse := core.Options{NPE: 16, PathReuse: true}
	variants := []struct {
		name string
		stripeCase
		far    bool // scale the odd subcarriers' bursts far outside the constellation
		resend bool // frames A, A, B, B instead of two fresh ones
		shared bool // subcarrier k ≥ 3 re-uses subcarrier k mod 3's channel
	}{
		{name: "plain", stripeCase: stripeCase{opts: core.Options{NPE: 16}}},
		{name: "cap", stripeCase: stripeCase{opts: core.Options{NPE: 16}, pathCap: 5}},
		{name: "theta", stripeCase: stripeCase{opts: core.Options{NPE: 16, Threshold: 0.95}}},
		{name: "strict", stripeCase: stripeCase{opts: core.Options{NPE: 16, StrictDeactivation: true}}},
		{name: "fallback", stripeCase: stripeCase{opts: core.Options{NPE: 16, StrictDeactivation: true}}, far: true},
		{name: "reuse", stripeCase: stripeCase{opts: reuse}, resend: true},
		{name: "reuse-state", stripeCase: stripeCase{opts: reuse, state: true}, resend: true},
		{name: "reuse-state-cap", stripeCase: stripeCase{opts: reuse, state: true, pathCap: 5}, resend: true},
		{name: "reuse-shared", stripeCase: stripeCase{opts: reuse, state: true}, resend: true, shared: true},
		{name: "soft", stripeCase: stripeCase{opts: core.Options{NPE: 16}, soft: true}},
		{name: "soft-reuse-state", stripeCase: stripeCase{opts: reuse, state: true, soft: true}, resend: true, shared: true},
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
							if v.shared {
								for ki := 3; ki < k; ki++ {
									h[ki] = h[ki%3]
								}
							}
							hs, ys = append(hs, h), append(ys, y)
							if v.resend {
								hs, ys = append(hs, h), append(ys, y)
							}
						}
						c := v.stripeCase
						c.opts.Backend = b
						one := runStripes(t, 1, cons, c, hs, ys)
						if v.far && one.fallbacks == 0 && k > 1 {
							t.Fatal("the far bursts never fell back")
						}
						for _, procs := range []int{2, 4} {
							many := runStripes(t, procs, cons, c, hs, ys)
							if want := min(k, procs) - 1; many.lanes != want || one.lanes != 0 {
								t.Fatalf("helper lanes: %d at GOMAXPROCS %d, %d at 1; want %d and 0", many.lanes, procs, one.lanes, want)
							}
							if many.offCaller != 0 || one.offCaller != 0 {
								t.Fatalf("emit ran off the caller's goroutine %d times", many.offCaller)
							}
							want := one
							want.lanes = many.lanes
							if !reflect.DeepEqual(want, many) {
								t.Fatalf("striped run at GOMAXPROCS %d differs from one stripe:\n one  %+v %+v %d\n many %+v %+v %d\n order %v\n    vs %v",
									procs, one.ops, one.pp, one.fallbacks, many.ops, many.pp, many.fallbacks, one.order, many.order)
							}
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

// TestStripedFrameScope: a FlexCore's frames stripe, PathReuse (with a
// ReuseState installed) or not, a detector other than a plain FlexCore
// — MMSE here — never does, and no helper goroutine outlives the frames
// that started them by more than its linger.
func TestStripedFrameScope(t *testing.T) {
	const k = 48
	cons := constellation.MustNew(16)
	hs, ys := frameCase(t, 0x57b1, 4, 3, k, 2)
	var striped atomic.Bool
	burst := stripedBurst(ys, &striped)
	emit := func(int, [][]int) {}
	withProcs(4, func() {
		fd := NewFrameDetector(detector.NewMMSE(cons))
		for i := 0; i < 3; i++ {
			if err := fd.DetectFrame(hs, 0.1, burst, emit); err != nil {
				t.Fatal(err)
			}
		}
		if len(fd.lanes) != 0 {
			t.Errorf("MMSE: %d helper lanes, want none", len(fd.lanes))
		}

		before := settledGoroutines()
		for _, opts := range []core.Options{{NPE: 16}, {NPE: 16, PathReuse: true}} {
			fd := NewFrameDetector(core.New(cons, opts))
			var st core.ReuseState
			fd.SetReuseState(&st)
			for i := 0; i < 100; i++ {
				striped.Store(false)
				if err := fd.DetectFrame(hs, 0.1, burst, emit); err != nil {
					t.Fatal(err)
				}
				if !striped.Load() {
					t.Fatalf("PathReuse %v: frame %d ran as one stripe", opts.PathReuse, i)
				}
			}
		}
		// A helper lingers after its frame, then exits; give the last
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
// hand-off included, make no heap allocation on either backend — hard
// frames, PathReuse frames against a ReuseState (frames A, A, B, B…:
// every subcarrier misses, then hits) and soft frames.
//
// The runtime's own caches of goroutines, threads and wait-queue entries
// still grow now and then, as helpers exit on a P other than the one
// that starts the next — a few mallocs in thousands of frames, in no
// fixed frame, and more in a process's first few hundred striped frames
// (hence 1000 warm frames per leg before the first window). So the gate
// reads up to five windows of 50 frames and needs one at 0 mallocs: one
// allocation per frame reads ≥ 50 in every window.
func TestStripedFrameAllocFree(t *testing.T) {
	if runtime.NumCPU() < 2 {
		t.Skip("a striped frame needs two cores: this host has one")
	}
	const k, frames, windows = 48, 50, 5
	cons := constellation.MustNew(16)
	var hs [2][]*cmatrix.Matrix
	var bursts [2]func(k int) [][]complex128
	var striped atomic.Bool
	for i := range hs {
		var ys [][][]complex128
		hs[i], ys = frameCase(t, uint64(0x57c1+i), 4, 3, k, 4)
		bursts[i] = stripedBurst(ys, &striped)
	}
	emit := func(int, [][]int) {}
	emitSoft := func(int, int, []int, [][]float64) {}
	withProcs(2, func() {
		for _, b := range []core.Backend{core.BackendComplex128, core.BackendSoA32} {
			for _, c := range []struct {
				name        string
				reuse, soft bool
			}{{name: "hard"}, {name: "reuse", reuse: true}, {name: "soft", soft: true}} {
				fd := NewFrameDetector(core.New(cons, core.Options{NPE: 16, Backend: b, PathReuse: c.reuse}))
				var st core.ReuseState
				fd.SetReuseState(&st)
				frame := func(i int) {
					f := i / 2 % 2
					var err error
					if c.soft {
						err = fd.DetectFrameSoft(hs[f], 0.1, bursts[f], emitSoft)
					} else {
						err = fd.DetectFrame(hs[f], 0.1, bursts[f], emit)
					}
					if err != nil {
						t.Fatal(err)
					}
				}
				for i := 0; i < 1000; i++ {
					frame(i)
				}
				var mallocs []uint64
				for w := 0; w < windows && (w == 0 || mallocs[w-1] != 0); w++ {
					stripedFrames := 0
					var m0, m1 runtime.MemStats
					runtime.ReadMemStats(&m0)
					for i := 0; i < frames; i++ {
						striped.Store(false)
						frame(i)
						if striped.Load() {
							stripedFrames++
						}
					}
					runtime.ReadMemStats(&m1)
					if stripedFrames != frames {
						t.Fatalf("%s/%s: %d of %d frames striped, want all", b, c.name, stripedFrames, frames)
					}
					mallocs = append(mallocs, m1.Mallocs-m0.Mallocs)
				}
				if mallocs[len(mallocs)-1] != 0 {
					t.Errorf("%s/%s: mallocs per window of %d striped frames %v, want a window at 0", b, c.name, frames, mallocs)
				}
			}
		}
	})
}

// TestStripedFrameLingerAllocFree gates the hand-off that
// TestStripedFrameAllocFree never makes: at its GOMAXPROCS 2 the test
// binary's two goroutines and a helper outnumber the Ps, so no helper
// lingers and every frame starts one. Frames of 3 subcarriers at
// GOMAXPROCS 4 keep the process alone (the two goroutines and two
// helpers), as in TestStripedFrameLinger, so back-to-back frames go to
// helpers still lingering from the frame before — the linger's timer
// and the hand-off's compare-and-swap included. The gate reads windows
// as TestStripedFrameAllocFree does and needs one at 0 mallocs that
// holds frames with a burst on a helper goroutine of the frame before.
// Four Ps on a 2-core host now and then leave a helper's thread off its
// core past its linger, and the goroutine started in its place may
// allocate until every P has spare goroutines cached: so 3000 warm
// frames come first, and up to ten windows of 50 frames are read.
func TestStripedFrameLingerAllocFree(t *testing.T) {
	if runtime.NumCPU() < 2 {
		t.Skip("a striped frame needs two cores: this host has one")
	}
	const k, procs, frames, windows = 3, 4, 50, 10
	cons := constellation.MustNew(16)
	hs, ys := frameCase(t, 0x57c3, 4, 3, k, 2)
	var ran [k]atomic.Int64 // the goroutine that ran each subcarrier's burst
	burst := func(k int) [][]complex128 {
		ran[k].Store(int64(goid()))
		return ys[k]
	}
	emit := func(int, [][]int) {}
	withProcs(procs, func() {
		if base := settledGoroutines(); base+k-1 > procs {
			t.Fatalf("%d goroutines before the frames: with %d helpers they outnumber the %d Ps", base, k-1, procs)
		}
		fd := NewFrameDetector(core.New(cons, core.Options{NPE: 16}))
		caller := int64(goid())
		var prev [k]int64 // the helper goroutines that ran the frame before's bursts
		// frame detects hs and reports whether a burst ran on a helper
		// goroutine of the frame before.
		frame := func() (reused bool) {
			if err := fd.DetectFrame(hs, 0.1, burst, emit); err != nil {
				t.Fatal(err)
			}
			var cur [k]int64
			for i := range ran {
				if id := ran[i].Load(); id != caller {
					cur[i] = id
					reused = reused || slices.Contains(prev[:], id)
				}
			}
			prev = cur
			return reused
		}
		for i := 0; i < 3000; i++ {
			frame()
		}
		var mallocs []uint64
		var reused []int
		for w := 0; w < windows && (w == 0 || mallocs[w-1] != 0 || reused[w-1] == 0); w++ {
			n := 0
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			for i := 0; i < frames; i++ {
				if frame() {
					n++
				}
			}
			runtime.ReadMemStats(&m1)
			mallocs, reused = append(mallocs, m1.Mallocs-m0.Mallocs), append(reused, n)
		}
		t.Logf("mallocs per window of %d frames %v; frames with a burst on a lingering helper %v", frames, mallocs, reused)
		if last := len(mallocs) - 1; mallocs[last] != 0 || reused[last] == 0 {
			t.Errorf("mallocs per window of %d frames %v, frames on a lingering helper %v: want a window at 0 mallocs with frames on one", frames, mallocs, reused)
		}
	})
}

// TestStripedFrameReleasesCores: every frame gives back the cores it
// reserved before it returns — hard, PathReuse and soft frames, a frame
// whose lanes, lane 0 on the wrapped detector included, fail at k = 12
// and a frame with a geometry fault — at GOMAXPROCS 1, 2 and 4.
func TestStripedFrameReleasesCores(t *testing.T) {
	const k = 48
	cons := constellation.MustNew(16)
	hs, ys := frameCase(t, 0x57f1, 4, 3, k, 2)
	burst := func(k int) [][]complex128 { return ys[k] }
	emit := func(int, [][]int) {}
	emitSoft := func(int, int, []int, [][]float64) {}
	mixed := append([]*cmatrix.Matrix(nil), hs...)
	mixed[20] = cmatrix.New(5, 3)
	failure := errors.New("prepare failed")
	for _, procs := range []int{1, 2, 4} {
		withProcs(procs, func() {
			fd := NewFrameDetector(core.New(cons, core.Options{NPE: 16, PathReuse: true}))
			var st core.ReuseState
			fd.SetReuseState(&st)
			failing := NewFrameDetector(core.New(cons, core.Options{NPE: 16}))
			if err := failing.DetectFrame(hs, 0.1, burst, emit); err != nil {
				t.Fatal(err)
			}
			for i := 0; failing.own != nil && i <= len(failing.lanes); i++ { // at GOMAXPROCS 1 there are no lanes, and nothing fails
				l := failing.lane(i)
				l.fd.fc = &failOn{flexCore: l.fd.fc, bad: map[*cmatrix.Matrix]error{hs[12]: failure}}
			}
			for _, c := range []struct {
				name    string
				run     func() error
				wantErr bool
			}{
				{"reuse", func() error { return fd.DetectFrame(hs, 0.1, burst, emit) }, false},
				{"reuse again", func() error { return fd.DetectFrame(hs, 0.1, burst, emit) }, false},
				{"soft", func() error { return fd.DetectFrameSoft(hs, 0.1, burst, emitSoft) }, false},
				{"failing at k = 12", func() error { return failing.DetectFrame(hs, 0.1, burst, emit) }, true},
				{"geometry fault", func() error { return fd.DetectFrame(mixed, 0.1, burst, emit) }, true},
				{"geometry fault, soft", func() error { return fd.DetectFrameSoft(mixed, 0.1, burst, emitSoft) }, true},
			} {
				if err := c.run(); (err != nil) != c.wantErr {
					t.Fatalf("GOMAXPROCS %d, %s: error %v, want one: %v", procs, c.name, err, c.wantErr)
				}
				if n := coresInUse.Load(); n != 0 {
					t.Fatalf("GOMAXPROCS %d, %s: %d cores held after the frame returned", procs, c.name, n)
				}
			}
		})
	}
}

// TestStripedFrameTakesBack: a hand-off whose goroutine has not started
// when the caller runs out of claims is taken back — the frame returns
// with the lane stale, without waiting for that goroutine, having run
// every subcarrier on the caller — and the goroutine, once it starts,
// finds nothing to do and exits, or serves the next frame's hand-off to
// its lane. A second
// goroutine spinning on the other P of GOMAXPROCS 2 keeps a helper's
// start behind the caller's whole frame (the new goroutine waits on the
// caller's P, which nothing steals from), so frames are taken back; the
// spinner yields now and then, so some are not. Either way every
// subcarrier's burst runs once, decisions, the ReuseState's bases and
// counters are the one-lane run's, and the goroutines settle after the
// frames.
func TestStripedFrameTakesBack(t *testing.T) {
	if runtime.NumCPU() < 2 {
		t.Skip("a striped frame needs two cores: this host has one")
	}
	const k, frames = 8, 200
	cons := constellation.MustNew(16)
	opts := core.Options{NPE: 16, PathReuse: true}
	var hs [][]*cmatrix.Matrix
	var ys [][][][]complex128
	for f := 0; f < frames; f++ {
		h, y := frameCase(t, uint64(0x57f8+f%4), 4, 3, k, 1)
		hs, ys = append(hs, h), append(ys, y)
	}
	one := runStripes(t, 1, cons, stripeCase{opts: opts, state: true}, hs, ys)
	withProcs(2, func() {
		base := settledGoroutines()
		var stop atomic.Bool
		spun := make(chan struct{})
		go func() {
			defer close(spun)
			for i := 0; !stop.Load(); i++ {
				if i%(1<<16) == 0 {
					runtime.Gosched()
				}
			}
		}()
		det := core.New(cons, opts)
		fd := NewFrameDetector(det)
		var st core.ReuseState
		fd.SetReuseState(&st)
		caller := goid()
		var many stripeRun
		takenBack := 0
		watchdog := time.AfterFunc(time.Minute, func() { panic("a striped frame never returned: a hand-off was lost") })
		for f := range hs {
			var bursts [k]atomic.Int32
			var offCaller atomic.Int32
			err := fd.DetectFrame(hs[f], 0.1, func(k int) [][]complex128 {
				bursts[k].Add(1)
				if goid() != caller {
					offCaller.Add(1)
				}
				return ys[f][k]
			}, func(k int, decisions [][]int) {
				many.order = append(many.order, k)
				cp := make([][]int, len(decisions))
				for s, d := range decisions {
					cp[s] = append([]int(nil), d...)
				}
				many.decisions = append(many.decisions, cp)
			})
			if err != nil {
				t.Fatal(err)
			}
			for i := range bursts {
				if n := bursts[i].Load(); n != 1 {
					t.Fatalf("frame %d: subcarrier %d's burst ran %d times", f, i, n)
				}
			}
			// A lane left stale was taken back: its goroutine had not
			// started, so the caller ran every subcarrier.
			if fd.lanes[0].state.Load() == laneStale {
				takenBack++
				if n := offCaller.Load(); n != 0 {
					t.Fatalf("frame %d: taken back, yet %d bursts ran off the caller", f, n)
				}
			}
			many.state = append(many.state, stateBases(t, cons, opts, 0, &st, hs[f]))
		}
		watchdog.Stop()
		stop.Store(true)
		<-spun
		t.Logf("%d of %d frames taken back", takenBack, frames)
		if takenBack == 0 {
			t.Errorf("none of %d frames was taken back", frames)
		}
		many.ops, many.pp, many.fallbacks = det.OpCount(), det.PreprocessStats(), det.FallbackDetections()
		if !reflect.DeepEqual(one, many) {
			t.Fatalf("frames with hand-offs taken back differ from one lane:\n one  %+v %+v\n many %+v %+v", one.ops, one.pp, many.ops, many.pp)
		}
		n := runtime.NumGoroutine()
		for deadline := time.Now().Add(100 * linger); n != base && time.Now().Before(deadline); n = runtime.NumGoroutine() {
			time.Sleep(linger / 10)
		}
		if n != base {
			t.Fatalf("%d goroutines 100 lingers after the last frame, %d before the first", n, base)
		}
	})
}

// TestStripedFrameTakesIdleCoresOnly: a frame takes lanes only on the
// cores the frames already in flight leave idle, and a frame on several
// lanes holds one core per lane. At GOMAXPROCS 4, a frame that arrives
// while another holds 2, 3 or 4 cores reserves 2, 1 or 1 — its caller's
// own — so the lanes in flight outnumber the cores only when the callers
// do. Which goroutines run a frame's subcarriers is not pinned (a lane
// claims them one at a time, and one lane may take both of a
// 2-subcarrier frame), so the test reads the cores each frame reserved.
func TestStripedFrameTakesIdleCoresOnly(t *testing.T) {
	const procs = 4
	cons := constellation.MustNew(16)
	hs, ys := frameCase(t, 0x57d1, 4, 3, 48, 1)
	// run detects hs[:k], calling hold(k) first in every burst, and
	// reports the cores in use its bursts saw.
	run := func(k int, hold func(k int)) (int64, error) {
		var cores atomic.Int64
		err := NewFrameDetector(core.New(cons, core.Options{NPE: 16})).DetectFrame(hs[:k], 0.1, func(k int) [][]complex128 {
			hold(k)
			cores.Store(coresInUse.Load())
			return ys[k]
		}, func(int, [][]int) {})
		return cores.Load(), err
	}
	withProcs(procs, func() {
		for _, first := range []int{2, 3, 48} {
			held, release := make(chan struct{}), make(chan struct{})
			var firstCores int64
			done := make(chan error)
			go func() {
				// subcarrier 0 is claimed first, on whichever lane: hold
				// the frame there, with no other frame in flight.
				_, err := run(first, func(k int) {
					if k == 0 {
						firstCores = coresInUse.Load()
						close(held)
						<-release
					}
				})
				done <- err
			}()
			<-held
			both, err := run(48, func(int) {})
			close(release)
			if aerr := <-done; err != nil || aerr != nil {
				t.Fatal(err, aerr)
			}
			second := both - firstCores
			want := int64(max(1, procs-min(first, procs)))
			if firstCores != int64(min(first, procs)) || second != want {
				t.Errorf("a %d-subcarrier frame in flight reserved %d cores and the next frame %d; want %d and %d",
					first, firstCores, second, min(first, procs), want)
			}
			if n := coresInUse.Load(); n != 0 {
				t.Fatalf("%d cores held after both frames returned", n)
			}
		}
	})
}

// settledGoroutines waits for the helpers earlier frames left lingering
// to exit and returns the goroutine count then.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(100 * linger); time.Now().Before(deadline); {
		time.Sleep(linger)
		if m := runtime.NumGoroutine(); m != n {
			n, deadline = m, time.Now().Add(100*linger)
		}
	}
	return n
}

// TestStripedFrameLinger: a helper that lingers after its frame serves
// the next hand-off or exits, whatever the gap between frames — none,
// half a linger, one, two or ten, in a seeded order and jittered ±25 %,
// so that hand-offs land before, around and after a helper gives up.
// Every frame returns with each subcarrier's burst run exactly once (a
// lost hand-off would leave the join waiting), decisions and counters
// are the one-lane run's, and the goroutines return to their count
// before the frames within 100 lingers of the last. Frames of 3
// subcarriers keep the process alone at GOMAXPROCS 4 (the test binary's
// two goroutines and two helpers), so helpers linger there and some
// frame must run on a helper goroutine of the frame before; at
// GOMAXPROCS 2 they never linger.
func TestStripedFrameLinger(t *testing.T) {
	const k, perGap = 3, 12
	cons := constellation.MustNew(16)
	opts := core.Options{NPE: 16}
	rng := channel.NewStreamRNG(0x57e1, 0)
	var gaps []time.Duration
	for _, g := range []time.Duration{0, linger / 2, linger, 2 * linger, 10 * linger} {
		for range perGap {
			gaps = append(gaps, g)
		}
	}
	rng.Shuffle(len(gaps), func(i, j int) { gaps[i], gaps[j] = gaps[j], gaps[i] })
	for i := range gaps {
		gaps[i] = time.Duration(float64(gaps[i]) * (0.75 + 0.5*rng.Float64()))
	}
	var hs [][]*cmatrix.Matrix
	var ys [][][][]complex128
	for f := range gaps {
		h, y := frameCase(t, uint64(0x57e2+f), 4, 3, k, 2)
		hs, ys = append(hs, h), append(ys, y)
	}
	one := runStripes(t, 1, cons, stripeCase{opts: opts}, hs, ys)

	for _, procs := range []int{2, 4} {
		withProcs(procs, func() {
			base := settledGoroutines()
			det := core.New(cons, opts)
			fd := NewFrameDetector(det)
			caller := goid()
			var many stripeRun
			var bursts [k]atomic.Int32
			var ran [k]atomic.Int64 // the goroutine that ran each subcarrier's burst
			reused := 0             // frames with a burst on a helper goroutine of the frame before
			prev := map[int64]bool{}
			// A lost hand-off hangs the join: fail with a message rather
			// than at the test binary's timeout. The timer starts no
			// goroutine until it fires.
			watchdog := time.AfterFunc(time.Minute, func() { panic("a striped frame never returned: a hand-off was lost") })
			for f := range hs {
				for start := time.Now(); time.Since(start) < gaps[f]; {
					// the caller busy between frames
				}
				for i := range bursts {
					bursts[i].Store(0)
				}
				err := fd.DetectFrame(hs[f], 0.1, func(k int) [][]complex128 {
					bursts[k].Add(1)
					ran[k].Store(int64(goid()))
					return ys[f][k]
				}, func(k int, decisions [][]int) {
					many.order = append(many.order, k)
					cp := make([][]int, len(decisions))
					for s, d := range decisions {
						cp[s] = append([]int(nil), d...)
					}
					many.decisions = append(many.decisions, cp)
				})
				if err != nil {
					t.Fatal(err)
				}
				cur := map[int64]bool{}
				for i := range bursts {
					if n := bursts[i].Load(); n != 1 {
						t.Fatalf("GOMAXPROCS %d, frame %d: subcarrier %d's burst ran %d times", procs, f, i, n)
					}
					if id := ran[i].Load(); id != int64(caller) {
						cur[id] = true
					}
				}
				for id := range cur {
					if prev[id] {
						reused++
						break
					}
				}
				prev = cur
			}
			watchdog.Stop()
			if len(fd.lanes) != min(k, procs)-1 {
				t.Fatalf("GOMAXPROCS %d: %d helper lanes, want %d", procs, len(fd.lanes), min(k, procs)-1)
			}
			// The helpers may linger only while the goroutines that were
			// there before the frames, plus the frame's helpers, fit the Ps.
			switch alone := base+len(fd.lanes) <= procs; {
			case alone && reused == 0:
				t.Errorf("GOMAXPROCS %d: no frame ran on a lingering helper", procs)
			case !alone && reused != 0:
				t.Errorf("GOMAXPROCS %d: %d frames ran on a helper that lingered with more goroutines than Ps", procs, reused)
			}
			many.ops, many.pp, many.fallbacks = det.OpCount(), det.PreprocessStats(), det.FallbackDetections()
			if !reflect.DeepEqual(one, many) {
				t.Fatalf("GOMAXPROCS %d: frames with gaps differ from one lane:\n one  %+v %+v %d\n many %+v %+v %d",
					procs, one.ops, one.pp, one.fallbacks, many.ops, many.pp, many.fallbacks)
			}

			n := runtime.NumGoroutine()
			for deadline := time.Now().Add(100 * linger); n != base && time.Now().Before(deadline); n = runtime.NumGoroutine() {
				time.Sleep(linger / 10)
			}
			if n != base {
				t.Fatalf("GOMAXPROCS %d: %d goroutines 100 lingers after the last frame, %d before the first", procs, n, base)
			}
		})
	}
}

// BenchmarkStripedFrame times one frame on the soa32 backend at the
// library bench workloads' geometries — frame-prep (8×8 64-QAM, N_PE
// 128 at 17 dB, 48 subcarriers of one vector) and frame-detect (12×12
// 64-QAM, N_PE 128 at 16 dB, 48 of four) — cycling over 4 seeded frames
// of fresh channels, as one caller calling back to back. Run it at -cpu
// 2 to time frames on two lanes. A test binary is never alone (its main
// goroutine waits beside the benchmark's), so helpers do not linger
// here: each frame starts its helper, as a served frame's does. With
// only timestamps taken in its own burst and emit and around the call,
// it also reports
//   - handoff_us: from the call to each helper's first burst, mean over
//     the helpers that claimed a subcarrier;
//   - join_us: from the frame's last burst to its first emit — the
//     last claim's detection and the join, during which the other lanes
//     have nothing left to claim.
func BenchmarkStripedFrame(b *testing.B) {
	for _, g := range []struct {
		name         string
		nt, qam, npe int
		sigma2       float64
		k, s         int
	}{
		{"frame-prep", 8, 64, 128, math.Pow(10, -17.0/10), 48, 1},
		{"frame-detect", 12, 64, 128, math.Pow(10, -16.0/10), 48, 4},
	} {
		b.Run(g.name, func(b *testing.B) {
			cons := constellation.MustNew(g.qam)
			rng := channel.NewStreamRNG(3850, 0)
			const frames = 4
			hs := make([][]*cmatrix.Matrix, frames)
			ys := make([][][][]complex128, frames)
			x := make([]complex128, g.nt)
			for f := range hs {
				for k := 0; k < g.k; k++ {
					h := channel.Rayleigh(rng, g.nt, g.nt)
					var burst [][]complex128
					for v := 0; v < g.s; v++ {
						for i := range x {
							x[i] = cons.Point(rng.IntN(cons.Size()))
						}
						burst = append(burst, channel.AddAWGN(rng, h.MulVec(x), g.sigma2))
					}
					hs[f], ys[f] = append(hs[f], h), append(ys[f], burst)
				}
			}
			fd := NewFrameDetector(core.New(cons, core.Options{NPE: g.npe, Backend: core.BackendSoA32}))
			caller, helpers := goid(), runtime.GOMAXPROCS(0)-1
			var (
				f         int
				base      time.Time
				at        = make([]time.Duration, g.k) // each subcarrier's burst, from base
				firstEmit time.Duration
				handoff   time.Duration
				handoffN  int
				join      time.Duration
				// the helpers seen in the frame so far, and when: goid
				// reads the stack, so bursts stop asking once all are seen
				seen  atomic.Int32
				ids   = make([]atomic.Int64, helpers)
				first = make([]time.Duration, helpers)
			)
			burst := func(k int) [][]complex128 {
				d := time.Since(base)
				at[k] = d
				if n := int(seen.Load()); n < helpers {
					id := int64(goid())
					known := id == int64(caller)
					for i := 0; i < n && !known; i++ {
						known = ids[i].Load() == id
					}
					if !known {
						i := seen.Add(1) - 1
						ids[i].Store(id)
						first[i] = d
					}
				}
				return ys[f][k]
			}
			emit := func(k int, decisions [][]int) {
				if k == 0 {
					firstEmit = time.Since(base)
				}
			}
			frame := func() {
				seen.Store(0)
				base = time.Now()
				if err := fd.DetectFrame(hs[f], g.sigma2, burst, emit); err != nil {
					b.Fatal(err)
				}
				join += firstEmit - slices.Max(at)
				for i := range seen.Load() {
					handoff += first[i]
					handoffN++
					ids[i].Store(0)
				}
			}
			for f = range hs {
				frame()
			}
			handoff, handoffN, join = 0, 0, 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f = i % frames
				frame()
			}
			b.StopTimer()
			if helpers > 0 {
				b.ReportMetric(float64(handoff)/float64(time.Microsecond)/float64(max(1, handoffN)), "handoff_us")
				b.ReportMetric(float64(join)/float64(time.Microsecond)/float64(b.N), "join_us")
			}
		})
	}
}
