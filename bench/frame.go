package main

import (
	"fmt"
	"runtime"
	"time"

	"flexcore/internal/core"
	"flexcore/internal/phy"
	"flexcore/internal/serve"
)

// frameRig is one library workload set up and ready to time: the ring,
// its offline reference and a warmed-up FrameDetector. One goroutine
// calls DetectFrame back to back — a closed loop of one caller.
type frameRig struct {
	w    *workload
	ring *ring
	ref  [][]uint16
	det  *core.FlexCore
	fd   *phy.FrameDetector

	next   int // ring cursor
	cur    *serve.DetectRequest
	curRef []uint16
	bad    bool
	burst  func(k int) [][]complex128
	emit   func(k int, decisions [][]int)

	warm outcomes
}

// newFrameRig is the work setup_s times; workers is the detector's
// intra-frame worker count (1 everywhere but the scaling leg).
func newFrameRig(w *workload, seed uint64, workers int) (*frameRig, error) {
	r, err := newRing(w, seed)
	if err != nil {
		return nil, err
	}
	ref, err := r.reference(w.npe)
	if err != nil {
		return nil, err
	}
	rig := &frameRig{w: w, ring: r, ref: ref, det: core.New(r.cons, w.options(w.npe, core.BackendSoA32, workers))}
	rig.fd = phy.NewFrameDetector(rig.det)
	rig.burst = func(k int) [][]complex128 { return rig.cur.Burst(k) }
	// Decisions are compared as they are emitted: the slice is only
	// valid inside the callback, and the compare is a few hundred
	// integer tests against a multi-millisecond frame.
	rig.emit = func(k int, decisions [][]int) {
		for s, d := range decisions {
			want := rig.curRef[(k*w.s+s)*w.nt:]
			for i, v := range d {
				if uint16(v) != want[i] {
					rig.bad = true
				}
			}
		}
	}
	for i := 0; i < warmupPerUser; i++ {
		o, _, err := rig.detectNext()
		if err != nil {
			rig.close()
			return nil, err
		}
		rig.warm.add(o)
	}
	return rig, nil
}

func (rig *frameRig) close() error {
	rig.det.Close()
	return nil
}

// detectNext detects the next ring frame and returns its outcome and
// the call's duration.
func (rig *frameRig) detectNext() (outcomes, time.Duration, error) {
	slot := rig.next
	rig.next = (rig.next + 1) % len(rig.ring.reqs)
	q := rig.ring.reqs[slot]
	rig.cur, rig.curRef, rig.bad = q, rig.ref[slot], false
	t0 := time.Now()
	err := rig.fd.DetectFrame(q.H(), q.Sigma2, rig.burst, rig.emit)
	d := time.Since(t0)
	if err != nil {
		return outcomes{}, d, fmt.Errorf("DetectFrame: %w", err)
	}
	o := outcomes{attempted: 1}
	if rig.bad {
		o.wrong = 1
	} else {
		o.ok = 1
	}
	return o, d, nil
}

// run calls DetectFrame back to back for n windows. A frame belongs to
// the window it completes in; the one in progress when the phase ends
// is finished and counted for correctness only. With a tracer it
// records one span per call.
func (rig *frameRig) run(n int, length time.Duration, tr *tracer) ([]window, outcomes, error) {
	ws := make([]window, n)
	var total outcomes
	start := time.Now()
	for {
		o, d, err := rig.detectNext()
		if err != nil {
			return nil, total, err
		}
		total.add(o)
		end := time.Since(start)
		if tr != nil {
			e := int64(time.Since(tr.base))
			tr.add(spanLoadFrame, -1, uint64(total.attempted), e-int64(d), e, 1)
		}
		wi := int(end / length)
		if wi >= n {
			return ws, total, nil
		}
		ws[wi].ok += o.ok
		ws[wi].lat = append(ws[wi].lat, float64(d)/1e3)
		ws[wi].busy += d.Seconds()
	}
}

// frameEndToEnd is the untraced pass of a library workload: set up
// (repeatedly, see timeSetups), then one closed-loop phase over the
// whole budget.
func frameEndToEnd(w *workload, seed uint64, seconds float64) (*passResult, error) {
	var rig *frameRig
	setup, err := timeSetups(func() (func() error, error) {
		var err error
		rig, err = newFrameRig(w, seed, 1)
		if err != nil {
			return nil, err
		}
		return rig.close, nil
	})
	if err != nil {
		return nil, err
	}
	defer rig.close()
	n, win := windowPlan(seconds)
	ws, total, err := rig.run(n, win, nil)
	if err != nil {
		return nil, err
	}
	res := newPassResult()
	res.count(rig.warm)
	res.count(total)
	fps, p50, _ := windowStats(ws)
	res.metrics["setup_s"] = setup
	res.metrics["sat_fps"] = fps
	res.metrics["lat_p50_us"] = p50
	return res, nil
}

// replayLaps is how many times the library workloads' replay walks the
// ring; their rings are short, and more spans steady the layer means.
const replayLaps = 3

// frameLayers is the traced pass of a library workload: untraced and
// traced windows alternating (2/7 of the budget), the Workers 1 / 2
// scaling leg (2/7), and the count-bound layer replay and reference-
// backend leg.
func frameLayers(w *workload, seed uint64, seconds float64, tr *tracer) (*passResult, error) {
	rig, err := newFrameRig(w, seed, 1)
	if err != nil {
		return nil, err
	}
	defer rig.close()
	res := newPassResult()
	res.count(rig.warm)
	m := res.metrics
	set := func(name string, v float64) { m[name] = sample{value: v} }

	var mem0, mem1 runtime.MemStats
	runtime.ReadMemStats(&mem0)
	var plain, traced []window
	loadFrames := 0
	rounds, win := windowPlan(seconds / 7)
	for i := 0; i < rounds; i++ {
		for _, on := range []bool{false, true} {
			var t *tracer
			if on {
				t = tr
			}
			ws, total, err := rig.run(1, win, t)
			if err != nil {
				return nil, err
			}
			res.count(total)
			loadFrames += total.attempted
			if on {
				traced = append(traced, ws[0])
			} else {
				plain = append(plain, ws[0])
			}
		}
	}
	runtime.ReadMemStats(&mem1)
	if fps, _, p99 := windowStats(plain); fps.value > 0 {
		on, _, _ := windowStats(traced)
		set("trace.overhead_share", 1-on.value/fps.value)
		set("lat_p99_us", p99.value)
	}
	if loadFrames > 0 {
		set("proc.allocs_per_frame", float64(mem1.Mallocs-mem0.Mallocs)/float64(loadFrames))
	}
	set("proc.heap_inuse_mb", float64(mem1.HeapInuse)/(1<<20))
	set("proc.gc_cycles", float64(mem1.NumGC-mem0.NumGC))
	set("proc.gc_pause_total_ms", float64(mem1.PauseTotalNs-mem0.PauseTotalNs)/1e6)
	set("fail_share", float64(res.failed)/float64(res.attempted))
	set("ser", rig.ring.ser())

	// Scaling: the same frames at Workers 2 over Workers 1, windows
	// alternating. On a one-core host the ratio would say nothing
	// about parallel speed-up, so it is left unmeasured (0).
	if runtime.NumCPU() >= 2 {
		rig2, err := newFrameRig(w, seed, 2)
		if err != nil {
			return nil, err
		}
		defer rig2.close()
		res.count(rig2.warm)
		var w1, w2 []window
		rounds, win := windowPlan(seconds / 7)
		for i := 0; i < rounds; i++ {
			for _, r := range []*frameRig{rig, rig2} {
				ws, total, err := r.run(1, win, nil)
				if err != nil {
					return nil, err
				}
				res.count(total)
				if r == rig {
					w1 = append(w1, ws[0])
				} else {
					w2 = append(w2, ws[0])
				}
			}
		}
		if base, _, _ := windowStats(w1); base.value > 0 {
			two, _, _ := windowStats(w2)
			set("core.scaling_w2", two.value/base.value)
		}
	}

	rp, err := newReplayer(w, rig.ring, tr, seed)
	if err != nil {
		return nil, err
	}
	defer rp.close()
	// The replay starts at slot 0, so the ring's last frame precedes it.
	if err := rp.warm(func(int) int { return len(rig.ring.reqs) - 1 }); err != nil {
		return nil, err
	}
	var frames []*replayFrame
	for lap := 0; lap < replayLaps; lap++ {
		for slot := range rig.ring.reqs {
			frames = append(frames, rp.newFrame(0, slot, uint64(lap*len(rig.ring.reqs)+slot), -1))
		}
	}
	c0 := rp.counters()
	replayFailed, err := rp.layers(frames)
	if err != nil {
		return nil, err
	}
	c1 := rp.counters()
	if err := rp.c128(len(rig.ring.reqs)); err != nil {
		return nil, err
	}
	res.attempted += len(frames)
	res.failed += replayFailed
	replayMetrics(m, w, tr.spans, c0, c1)
	by := sumByName(tr.spans)
	set("core.c128.prepare_all_us", perCallMicros(by, spanC128Prepare))
	set("core.c128.detect_us", perCallMicros(by, spanC128Detect))
	return res, nil
}
