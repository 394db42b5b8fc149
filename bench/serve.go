package main

import (
	"context"
	"fmt"
	"net"
	"runtime"
	"sort"
	"time"

	"flexcore/internal/core"
	"flexcore/internal/detector"
	"flexcore/internal/serve"
)

// serveRig is one serve workload set up and ready to time: the ring and
// its offline reference, an in-process server on a real loopback TCP
// listener, and the dialled, warmed-up connections.
type serveRig struct {
	w      *workload
	ring   *ring
	srv    *serve.Server
	served chan error // Serve's return value
	conns  []*connLoad
	cls    []*serve.Client
	// warm counts the warm-up frames, which are verified like any other.
	warm outcomes
}

// newServeRig is the work setup_s times. ladder, when non-empty, builds
// the overload step's degrading server and the references at its rungs.
func newServeRig(w *workload, seed uint64, ladder []int) (*serveRig, error) {
	r, err := newRing(w, seed)
	if err != nil {
		return nil, err
	}
	for _, npe := range append([]int{w.npe}, ladder...) {
		if _, err := r.reference(npe); err != nil {
			return nil, err
		}
	}
	cfg := serve.Config{
		Shards: serveShards, WorkersPerShard: serveWorkers, QueueDepth: serveQueueDepth,
		DetectorFactory: func() detector.Detector { return core.New(r.cons, w.options(w.npe, core.BackendSoA32, 1)) },
	}
	if len(ladder) > 0 {
		cfg.QueueDepth = overloadQueueDepth
		cfg.DegradeLadder = ladder
		cfg.DegradeFactory = func(npe int) detector.Detector { return core.New(r.cons, w.options(npe, core.BackendSoA32, 1)) }
	}
	srv, err := serve.NewServer(cfg)
	if err != nil {
		return nil, err
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	rig := &serveRig{w: w, ring: r, srv: srv, served: make(chan error, 1)}
	// Joined in close: Shutdown closes the listener, Serve returns, and
	// close receives its result.
	//lint:ignore waitdiscipline joined in serveRig.close, which receives from served after Shutdown makes Serve return
	go func() { rig.served <- srv.Serve(lis) }()

	for c := 0; c < serveConns; c++ {
		cl, err := serve.Dial(lis.Addr().String())
		if err != nil {
			rig.close()
			return nil, err
		}
		// No exchange in the benchmark waits this long unless the
		// server is wedged; then the run fails instead of hanging.
		cl.SetIOTimeout(10 * time.Second)
		rig.cls = append(rig.cls, cl)
		conn := &connLoad{tgt: cl, ring: r}
		for u := c; u < w.users; u += serveConns {
			conn.users = append(conn.users, u)
		}
		conn.seq = make([]uint64, len(conn.users))
		rig.conns = append(rig.conns, conn)
	}
	if err := rig.warmUp(); err != nil {
		rig.close()
		return nil, err
	}
	return rig, nil
}

// warmUp sends warmupPerUser frames per user, one at a time.
func (rig *serveRig) warmUp() error {
	var resp serve.DetectResponse
	for i := 0; i < warmupPerUser; i++ {
		for c, conn := range rig.conns {
			for range conn.users {
				f, q := conn.nextFrame(0)
				if err := rig.cls[c].Do(q, &resp); err != nil {
					return fmt.Errorf("warm-up: %w", err)
				}
				rig.warm.add(rig.ring.verify(f.slot, &resp))
			}
		}
	}
	return nil
}

// close stops the clients and the server and waits for the accept loop.
func (rig *serveRig) close() error {
	for _, cl := range rig.cls {
		cl.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := rig.srv.Shutdown(ctx)
	if serr := <-rig.served; err == nil {
		err = serr
	}
	return err
}

// verify classifies one response against the offline reference at the
// N_PE the server says it served.
func (r *ring) verify(slot int, resp *serve.DetectResponse) outcomes {
	o := outcomes{attempted: 1}
	switch resp.Status {
	case serve.StatusOK:
		npe := resp.ServedNPE
		if npe == 0 {
			npe = r.w.npe
		}
		if ref, ok := r.refs[npe]; ok && equalDecisions(ref[slot], resp.Decisions) {
			o.ok = 1
			if resp.ServedNPE != 0 {
				o.degraded = 1
			}
		} else {
			o.wrong = 1
		}
	case serve.StatusExpired:
		o.expired = 1
	default:
		o.rejected = 1
	}
	return o
}

func (rig *serveRig) phase(spec phaseSpec) phaseResult {
	return runPhase(rig.conns, spec, rig.ring.verify)
}

// serveEndToEnd is the untraced pass of a serve workload: set up
// (repeatedly, see timeSetups), then saturate (closed loop, 4/7 of the
// budget) and the paced mid rate (open loop, 3/7).
func serveEndToEnd(w *workload, seed uint64, seconds float64) (*passResult, error) {
	var rig *serveRig
	setup, err := timeSetups(func() (func() error, error) {
		var err error
		rig, err = newServeRig(w, seed, nil)
		if err != nil {
			return nil, err
		}
		return rig.close, nil
	})
	if err != nil {
		return nil, err
	}
	satN, satWin := windowPlan(seconds * 4 / 7)
	midN, midWin := windowPlan(seconds * 3 / 7)
	sat := rig.phase(phaseSpec{name: "sat", windows: satN, window: satWin})
	mid := rig.phase(phaseSpec{name: "mid", windows: midN, window: midWin, rate: w.rates[1]})
	if err := rig.close(); err != nil {
		return nil, err
	}

	res := newPassResult()
	res.count(rig.warm)
	res.count(sat.outcomes)
	res.count(mid.outcomes)
	if err := firstConnError(sat, mid); err != nil {
		return nil, err
	}
	fps, _, _ := windowStats(sat.windows)
	_, p50, _ := windowStats(mid.windows)
	res.metrics["setup_s"] = setup
	res.metrics["sat_fps"] = fps
	res.metrics["lat_p50_us"] = p50
	return res, nil
}

func firstConnError(phases ...phaseResult) error {
	for _, p := range phases {
		if len(p.errs) > 0 {
			return fmt.Errorf("phase %s: %w", p.spec.name, p.errs[0])
		}
	}
	return nil
}

// latTotals recovers the server's latency sum and count from a
// snapshot, so two snapshots give a phase's mean.
func latTotals(s serve.Snapshot) (sumMicros float64, n int64) {
	for _, b := range s.Latency {
		n += b.Count
	}
	return s.LatencyMeanMicros * float64(n), n
}

func serverMeanBetween(a, b serve.Snapshot) float64 {
	sa, na := latTotals(a)
	sb, nb := latTotals(b)
	if nb == na {
		return 0
	}
	return (sb - sa) / float64(nb-na)
}

// serveLayers is the traced pass of a serve workload. Its budget splits
// into: untraced and traced saturate windows alternating (2/7), the
// three paced rates (1/7 each), the overload step where the workload
// has one (1/7), and the count-bound idle round trips and layer replay.
func serveLayers(w *workload, seed uint64, seconds float64, tr *tracer) (*passResult, error) {
	rig, err := newServeRig(w, seed, nil)
	if err != nil {
		return nil, err
	}
	closed := false
	defer func() {
		if !closed {
			rig.close()
		}
	}()
	res := newPassResult()
	res.count(rig.warm)
	m := res.metrics
	set := func(name string, v float64) { m[name] = sample{value: v} }

	// Saturate, tracing off and on in alternate windows.
	var mem0, mem1 runtime.MemStats
	runtime.ReadMemStats(&mem0)
	snap0 := rig.srv.Metrics()
	var plain, traced []window
	satFrames, satOK := 0, 0
	rounds, win := windowPlan(seconds / 7)
	for i := 0; i < rounds; i++ {
		for _, on := range []bool{false, true} {
			p := rig.phase(phaseSpec{name: "sat", windows: 1, window: win, traced: on})
			if err := firstConnError(p); err != nil {
				return nil, err
			}
			res.count(p.outcomes)
			satFrames += p.attempted
			satOK += p.windows[0].ok
			if on {
				traced = append(traced, p.windows[0])
				tr.merge(p.spans)
			} else {
				plain = append(plain, p.windows[0])
			}
		}
	}
	snap1 := rig.srv.Metrics()
	runtime.ReadMemStats(&mem1)
	sat, _, _ := windowStats(plain)
	satFPS := sat.value
	if satFPS > 0 {
		on, _, _ := windowStats(traced)
		set("trace.overhead_share", 1-on.value/satFPS)
	}
	hwm := 0
	for _, sh := range snap1.ShardStats {
		if sh.QueueHighWatermark > hwm {
			hwm = sh.QueueHighWatermark
		}
	}
	set("serve.sat.queue_hwm", float64(hwm))
	set("serve.sat.server_lat_mean_us", serverMeanBetween(snap0, snap1))
	if satFrames > 0 {
		set("proc.allocs_per_frame", float64(mem1.Mallocs-mem0.Mallocs)/float64(satFrames))
	}
	set("proc.heap_inuse_mb", float64(mem1.HeapInuse)/(1<<20))
	set("proc.gc_cycles", float64(mem1.NumGC-mem0.NumGC))
	set("proc.gc_pause_total_ms", float64(mem1.PauseTotalNs-mem0.PauseTotalNs)/1e6)

	// Paced: the three frozen rates, latency from due time.
	var late []float64
	maxInSLO := 0.0
	for i, label := range []string{"low", "mid", "high"} {
		before := rig.srv.Metrics()
		n, win := windowPlan(seconds / 7)
		p := rig.phase(phaseSpec{name: label, windows: n, window: win, rate: w.rates[i]})
		if err := firstConnError(p); err != nil {
			return nil, err
		}
		res.count(p.outcomes)
		late = append(late, p.lateMicros...)
		_, p50, p99 := windowStats(p.windows)
		if label == "mid" {
			server := serverMeanBetween(before, rig.srv.Metrics())
			set("serve.mid.server_lat_mean_us", server)
			if p.answered > 0 {
				set("serve.mid.client_minus_server_us", p.sendLatSumMicros/float64(p.answered)-server)
			}
			set("lat_p99_us", p99.value)
		} else {
			set("serve."+label+".lat_p50_us", p50.value)
			set("serve."+label+".lat_p99_us", p99.value)
		}
		// The limit is judged on every frame of the phase, not on its
		// quiet windows: a user meets the disturbed ones too.
		var all []float64
		for _, pw := range p.windows {
			all = append(all, pw.lat...)
		}
		pooledP99 := percentile(sortedCopy(all), 99)
		// In the limit: every frame answered correctly, p99 inside the
		// limit, and no more frames left unanswered at the end than the
		// limit itself explains (rate × limit, Little's law).
		if p.failed() == 0 && pooledP99 <= sloMicros && float64(p.backlog) <= w.rates[i]*sloMicros/1e6 {
			maxInSLO = w.rates[i]
		}
	}
	set("serve.max_rate_in_slo_fps", maxInSLO)
	set("gen.late_p99_us", percentile(sortedCopy(late), 99))
	snap2 := rig.srv.Metrics()
	set("serve.rejected", float64(snap2.RejectedOverload+snap2.RejectedDraining+snap2.RejectedInvalid))
	set("serve.expired", float64(snap2.ExpiredFrames))
	set("serve.conn_errors", float64(snap2.BadFrames+snap2.WriteErrors+snap2.ConnTimeouts))
	// fail_share covers saturate and paced; the overload step below
	// sheds load on purpose and is kept out of it.
	set("fail_share", float64(res.failed)/float64(res.attempted))
	set("ser", rig.ring.ser())

	rp, err := newReplayer(w, rig.ring, tr, seed)
	if err != nil {
		return nil, err
	}
	defer rp.close()
	// Each user's last frame under load is the one before its next.
	err = rp.warm(func(u int) int {
		return rig.ring.slot(u, rig.conns[u%serveConns].seq[u/serveConns]-1)
	})
	if err != nil {
		return nil, err
	}
	// Idle round trips first — one frame in flight over TCP — then the
	// layers behind each of them.
	var resp serve.DetectResponse
	var frames []*replayFrame
	err = rig.eachFrame(func(c int, f sentFrame, q *serve.DetectRequest) error {
		var derr error
		rt := rp.span(spanRoundtrip, -1, q.FrameID, 1, func() { derr = rig.cls[c].Do(q, &resp) })
		if derr != nil {
			return fmt.Errorf("idle round trip: %w", derr)
		}
		res.count(rig.ring.verify(f.slot, &resp))
		frames = append(frames, rp.newFrame(f.user, f.slot, q.FrameID, rt))
		return nil
	})
	if err != nil {
		return nil, err
	}
	// A shard worker only ever sees its own shard's users, so a pass
	// walks one shard's worth of users at a time: the detector then
	// cycles through the working set a worker does, not twice that.
	// Each user's frames stay in order, which is all its reuse history
	// depends on.
	sort.SliceStable(frames, func(i, j int) bool { return frames[i].u%serveShards < frames[j].u%serveShards })
	c0 := rp.counters()
	replayFailed, err := rp.layers(frames)
	if err != nil {
		return nil, err
	}
	c1 := rp.counters()
	inproc := rig.srv.InProcess()
	err = rig.eachFrame(func(c int, f sentFrame, q *serve.DetectRequest) error {
		var derr error
		rp.span(spanInproc, -1, q.FrameID, 1, func() { derr = inproc.Do(q, &resp) })
		if derr != nil {
			return fmt.Errorf("in-process round trip: %w", derr)
		}
		res.count(rig.ring.verify(f.slot, &resp))
		return nil
	})
	inproc.Close()
	if err != nil {
		return nil, err
	}
	res.attempted += len(frames)
	res.failed += replayFailed
	replayMetrics(m, w, tr.spans, c0, c1)
	by := sumByName(tr.spans)
	rtMicros := perCallMicros(by, spanRoundtrip)
	set("serve.roundtrip_idle_us", rtMicros)
	set("serve.inproc_idle_us", perCallMicros(by, spanInproc))
	set("serve.overhead_us", selfPerSpanMicros(by, spanRoundtrip))
	if rtMicros > 0 {
		set("serve.overhead_share", selfPerSpanMicros(by, spanRoundtrip)/rtMicros)
	}
	q0 := rig.ring.reqs[0]
	set("serve.bytes_per_frame", float64(len(serve.AppendFrame(nil, serve.MsgDetect, q0.AppendPayload(nil)))+
		len(serve.AppendFrame(nil, serve.MsgResult, (&serve.DetectResponse{Decisions: rp.ref[0]}).AppendPayload(nil)))))
	// Both factors are plain means — disturbed windows and disturbed
	// spans included — so the product compares like with like.
	meanFPS := float64(satOK) / (float64(2*rounds) * win.Seconds())
	set("serve.worker_busy_share", meanFPS*m["phy.detect_frame_us"].value/1e6/(serveShards*serveWorkers))

	closed = true
	if err := rig.close(); err != nil {
		return nil, err
	}
	if w.overload {
		if err := overloadStep(w, seed, seconds/7, res); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// eachFrame walks the ring once in the load's order — frame by frame,
// users round-robin — handing each frame to fn with its wire fields
// stamped and the connection it rides.
func (rig *serveRig) eachFrame(fn func(c int, f sentFrame, q *serve.DetectRequest) error) error {
	for i := 0; i < rig.w.frames; i++ {
		for u := 0; u < rig.w.users; u++ {
			c := u % serveConns
			f, q := rig.conns[c].frameOf(u/serveConns, 0)
			if err := fn(c, f, q); err != nil {
				return err
			}
		}
	}
	return nil
}

// overloadStep offers more than the server can serve, with a staleness
// budget on every frame, to a server that may degrade N_PE down the
// ladder: the degrade lanes, expiry and admission rejection all run,
// and every degraded answer is checked against the offline reference at
// the N_PE it reports. Its frames are shed on purpose, so they are
// reported on their own and kept out of fail_share.
func overloadStep(w *workload, seed uint64, seconds float64, res *passResult) error {
	rig, err := newServeRig(w, seed, overloadLadder)
	if err != nil {
		return err
	}
	p := rig.phase(phaseSpec{name: "over", windows: 1, window: time.Duration(seconds * float64(time.Second)), rate: overloadRate, deadline: overloadDeadlineMicros})
	if err := rig.close(); err != nil {
		return err
	}
	if err := firstConnError(p); err != nil {
		return err
	}
	// A wrong answer fails the run even here; shed frames do not.
	res.attempted += p.attempted
	res.failed += p.wrong
	n := float64(p.attempted)
	set := func(name string, v float64) { res.metrics[name] = sample{value: v} }
	set("serve.over.ok_share", float64(p.ok)/n)
	set("serve.over.degraded_share", float64(p.degraded)/n)
	set("serve.over.expired_share", float64(p.expired)/n)
	set("serve.over.rejected_share", float64(p.rejected)/n)
	set("serve.over.goodput_fps", float64(p.ok)/p.spec.length().Seconds())
	set("serve.over.lat_p99_us", percentile(sortedCopy(p.windows[0].lat), 99))
	return nil
}
