// Command flexload is the load generator for the flexserve detection
// service (DESIGN.md §13): it drives pipelined detection frames from
// many simulated users over concurrent connections — closed-loop (a
// fixed in-flight window per connection) or open-loop (a target
// aggregate frame rate on a fixed schedule) — and reports throughput
// and exact latency percentiles of the detected (StatusOK) frames.
// Each user follows a channel-coherence model: its
// per-subcarrier channels are redrawn every -coherence frames
// (0 = static, the cross-frame Prepare-reuse steady state), so the
// served reuse hit rate is a controlled property of the workload.
//
// With -spawn it starts an in-process loopback server first (the
// self-contained benchmark mode that produced BENCH_PR8.json) and
// includes the server's final metrics snapshot in the -json output.
//
// Frames can carry a staleness budget (-deadline, shed server-side as
// StatusExpired once stale), overloaded rejections can be retried
// closed-loop (-retries), and every connection can run under lossless
// fault injection (-fault partial,short,stutter) to exercise the
// chaos-hardened wire path under load. The report and -json break out
// expired/degraded/retried frames and per-status latency percentiles.
//
// Example:
//
//	flexload -spawn -shards 2 -reuse -users 16 -frames 200 -json
//	flexload -addr :7600 -conns 8 -users 32 -rate 5000 -duration 10s
//	flexload -addr :7600 -deadline 5ms -retries 2 -fault partial,stutter
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"flexcore/internal/channel"
	"flexcore/internal/constellation"
	"flexcore/internal/core"
	"flexcore/internal/detector"
	"flexcore/internal/serve"
)

type config struct {
	addr  string
	spawn bool

	// server knobs (spawn mode)
	shards    int
	queue     int
	qam       int
	npe       int
	threshold float64
	reuse     bool
	backend   string

	// workload
	conns     int
	users     int
	frames    int
	inflight  int
	rate      float64
	duration  time.Duration
	coherence int
	seed      uint64
	deadline  time.Duration
	retries   int
	fault     string

	nr, nt, k, s int
	sigma2       float64
}

// latSummary is one response class's latency distribution.
type latSummary struct {
	Count  int64   `json:"count"`
	MeanUs float64 `json:"mean_micros"`
	P50Us  float64 `json:"p50_micros"`
	P95Us  float64 `json:"p95_micros"`
	P99Us  float64 `json:"p99_micros"`
}

// result is the -json document: the workload's client-side view plus,
// in spawn mode, the server's own snapshot (reuse hits, queue
// high-watermarks, …). FramesOK counts every served frame including
// degraded ones; FramesDegraded breaks out the responses the pressure
// ladder served at a reduced N_PE, FramesExpired the StatusExpired
// sheds, FramesRetried the overloaded re-submissions (closed loop).
// The headline latency covers StatusOK frames only: a refusal is
// answered in microseconds, and pooling it would make the headline
// improve as the server sheds more load. LatencyByStatus keeps every
// status. GenLate is the open-loop generator's lateness behind its
// schedule (0 in closed loop): a large value means the client, not
// the server, set the offered rate.
type result struct {
	Config          map[string]any        `json:"config"`
	ElapsedSeconds  float64               `json:"elapsed_seconds"`
	FramesSent      int64                 `json:"frames_sent"`
	FramesOK        int64                 `json:"frames_ok"`
	FramesRejected  int64                 `json:"frames_rejected"`
	FramesExpired   int64                 `json:"frames_expired"`
	FramesDegraded  int64                 `json:"frames_degraded"`
	FramesRetried   int64                 `json:"frames_retried"`
	ThroughputFPS   float64               `json:"throughput_fps"`
	LatencyMeanUs   float64               `json:"latency_mean_micros"`
	LatencyP50Us    float64               `json:"latency_p50_micros"`
	LatencyP95Us    float64               `json:"latency_p95_micros"`
	LatencyP99Us    float64               `json:"latency_p99_micros"`
	LatencyByStatus map[string]latSummary `json:"latency_by_status,omitempty"`
	GenLateP50Us    float64               `json:"gen_late_p50_micros"`
	GenLateP99Us    float64               `json:"gen_late_p99_micros"`
	Server          *serve.Snapshot       `json:"server,omitempty"`
}

func main() {
	var c config
	flag.StringVar(&c.addr, "addr", "", "flexserve TCP address to load (empty with -spawn: loopback)")
	flag.BoolVar(&c.spawn, "spawn", false, "start an in-process loopback server and load it")
	flag.IntVar(&c.shards, "shards", 2, "[spawn] detection shards")
	flag.IntVar(&c.queue, "queue", 256, "[spawn] per-shard admission backlog")
	flag.IntVar(&c.qam, "qam", 16, "[spawn] QAM order")
	flag.IntVar(&c.npe, "npe", 64, "[spawn] FlexCore processing elements")
	flag.Float64Var(&c.threshold, "threshold", 0, "[spawn] a-FlexCore stopping threshold (0 = fixed NPE; paper uses 0.95)")
	flag.BoolVar(&c.reuse, "reuse", false, "[spawn] Prepare reuse keyed per user, on bit-identical per-level model input (output-neutral)")
	flag.StringVar(&c.backend, "backend", "", "[spawn] kernel backend: complex128 (default) or soa32")
	flag.IntVar(&c.conns, "conns", 4, "pipelined client connections")
	flag.IntVar(&c.users, "users", 8, "simulated users (round-robin across connections; user→shard routing is the server's)")
	flag.IntVar(&c.frames, "frames", 100, "frames per user (closed loop; ignored when -rate is set)")
	flag.IntVar(&c.inflight, "inflight", 8, "closed-loop in-flight window per connection")
	flag.Float64Var(&c.rate, "rate", 0, "open-loop aggregate target rate in frames/sec (0 = closed loop)")
	flag.DurationVar(&c.duration, "duration", 10*time.Second, "open-loop run length")
	flag.IntVar(&c.coherence, "coherence", 0, "frames between channel redraws per user (0 = static channel)")
	flag.Uint64Var(&c.seed, "seed", 0xf1ec, "workload seed (frames are deterministic per (seed, user, frame))")
	flag.DurationVar(&c.deadline, "deadline", 0, "per-frame staleness budget stamped into every request (0 = none; stale frames are shed with StatusExpired)")
	flag.IntVar(&c.retries, "retries", 0, "max re-submissions per frame on StatusOverloaded (closed loop only)")
	flag.StringVar(&c.fault, "fault", "", "comma-separated lossless fault injection on every connection: partial, short, stutter")
	flag.IntVar(&c.nr, "nr", 6, "receive antennas")
	flag.IntVar(&c.nt, "nt", 4, "transmit streams")
	flag.IntVar(&c.k, "k", 32, "subcarriers per frame")
	flag.IntVar(&c.s, "s", 1, "OFDM symbols per subcarrier")
	flag.Float64Var(&c.sigma2, "sigma2", 0.05, "noise variance")
	jsonOut := flag.Bool("json", false, "emit the run result as JSON on stdout")
	flag.Parse()

	if !c.spawn && c.addr == "" {
		fatal(fmt.Errorf("need -addr or -spawn"))
	}
	if c.conns <= 0 || c.users <= 0 {
		fatal(fmt.Errorf("-conns and -users must be positive"))
	}
	if c.users < c.conns {
		c.conns = c.users
	}

	var srv *serve.Server
	if c.spawn {
		var err error
		srv, err = spawnServer(&c)
		if err != nil {
			fatal(err)
		}
	}

	res, err := run(&c)
	if err != nil {
		fatal(err)
	}
	if srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			fatal(fmt.Errorf("drain: %w", err))
		}
		snap := srv.Metrics()
		res.Server = &snap
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			fatal(err)
		}
		return
	}
	fmt.Printf("flexload: %d frames ok (%d degraded), %d rejected, %d expired, %d retried in %.2fs — %.0f frames/sec\n",
		res.FramesOK, res.FramesDegraded, res.FramesRejected, res.FramesExpired, res.FramesRetried,
		res.ElapsedSeconds, res.ThroughputFPS)
	fmt.Printf("flexload: ok latency µs — mean %.0f, p50 %.0f, p95 %.0f, p99 %.0f\n",
		res.LatencyMeanUs, res.LatencyP50Us, res.LatencyP95Us, res.LatencyP99Us)
	if c.rate > 0 {
		fmt.Printf("flexload: generator late µs — p50 %.0f, p99 %.0f\n", res.GenLateP50Us, res.GenLateP99Us)
	}
	for status, s := range res.LatencyByStatus {
		fmt.Printf("flexload: latency[%s] µs — n %d, mean %.0f, p50 %.0f, p95 %.0f, p99 %.0f\n",
			status, s.Count, s.MeanUs, s.P50Us, s.P95Us, s.P99Us)
	}
	if res.Server != nil {
		var hits, misses int64
		for _, st := range res.Server.ShardStats {
			hits += st.ReuseHits
			misses += st.ReuseMisses
		}
		fmt.Printf("flexload: server — %d completed, reuse hits/misses %d/%d\n", res.Server.Completed, hits, misses)
	}
}

// spawnServer starts the loopback server described by the [spawn] flags
// and points c.addr at it.
func spawnServer(c *config) (*serve.Server, error) {
	cons, err := constellation.New(c.qam)
	if err != nil {
		return nil, err
	}
	backend, ok := core.ParseBackend(c.backend)
	if !ok {
		return nil, fmt.Errorf("unknown backend %q", c.backend)
	}
	opts := core.Options{NPE: c.npe, Threshold: c.threshold, PathReuse: c.reuse, Backend: backend}
	srv, err := serve.NewServer(serve.Config{
		Shards:          c.shards,
		QueueDepth:      c.queue,
		DetectorFactory: func() detector.Detector { return core.New(cons, opts) },
	})
	if err != nil {
		return nil, err
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	// Joined across functions: main's srv.Shutdown closes the listener,
	// Serve returns, and the goroutine exits — the analyzer cannot see a
	// join that lives in the caller.
	//lint:ignore waitdiscipline joined in main via srv.Shutdown, which closes the listener and makes Serve return
	go func() {
		if err := srv.Serve(lis); err != nil {
			fmt.Fprintf(os.Stderr, "flexload: spawned server: %v\n", err)
		}
	}()
	c.addr = lis.Addr().String()
	return srv, nil
}

// user is one simulated uplink user: its identity and its private
// channel/data RNG state under the coherence model.
type user struct {
	id    uint64
	sent  uint64 // frames generated so far
	chans []*matrixBuf
}

// matrixBuf caches one user's current per-subcarrier channel draw so a
// static user re-sends bit-identical H arrays (the reuse contract needs
// exact bits, not a re-derivation).
type matrixBuf struct {
	data []complex128
}

// fillFrame writes user u's next frame into q. The channel is redrawn
// from the coherence-keyed stream every `coherence` frames (epoch
// change); transmitted symbols and noise always come from the
// frame-keyed stream, so payloads differ even when channels repeat.
func fillFrame(c *config, u *user, q *serve.DetectRequest) error {
	u.sent++
	frameID := u.sent
	q.UserID, q.FrameID, q.Sigma2 = u.id, frameID, c.sigma2
	q.DeadlineMicros = uint64(c.deadline / time.Microsecond)
	if err := q.SetGeometry(c.nr, c.nt, c.k, c.s); err != nil {
		return err
	}
	epoch := uint64(0)
	if c.coherence > 0 {
		epoch = (frameID - 1) / uint64(c.coherence)
	}
	redraw := u.chans == nil || (c.coherence > 0 && (frameID-1)%uint64(c.coherence) == 0)
	if u.chans == nil {
		u.chans = make([]*matrixBuf, c.k)
		for k := range u.chans {
			u.chans[k] = &matrixBuf{data: make([]complex128, c.nr*c.nt)}
		}
	}
	if redraw {
		chRNG := channel.NewStreamRNG(c.seed, u.id<<24|epoch)
		for k := 0; k < c.k; k++ {
			h := channel.Rayleigh(chRNG, c.nr, c.nt)
			copy(u.chans[k].data, h.Data)
		}
	}
	dataRNG := channel.NewStreamRNG(c.seed^0xda7a, u.id<<24|frameID)
	x := make([]complex128, c.nt)
	for k := 0; k < c.k; k++ {
		hm := q.H()[k]
		copy(hm.Data, u.chans[k].data)
		for _, y := range q.Burst(k) {
			for i := range x {
				x[i] = channel.CN(dataRNG, 1)
			}
			copy(y, hm.MulVec(x))
			channel.AddAWGN(dataRNG, y, c.sigma2)
		}
	}
	return nil
}

// connStats is one connection's tally, merged after the run.
type connStats struct {
	sent, ok, rejected int64
	expired, degraded  int64
	retried            int64
	lat                []time.Duration // StatusOK frames only
	latBy              map[serve.Status][]time.Duration
	late               []time.Duration // open loop: each send's lateness behind its due time
	err                error
}

// record books one finalized response: its per-status latency, the
// headline latency if it was detected, and the disposition counters.
func (st *connStats) record(status serve.Status, servedNPE int, lat time.Duration) {
	st.latBy[status] = append(st.latBy[status], lat)
	switch status {
	case serve.StatusOK:
		st.ok++
		st.lat = append(st.lat, lat)
		if servedNPE != 0 {
			st.degraded++
		}
	case serve.StatusExpired:
		st.expired++
	default:
		st.rejected++
	}
}

// run drives the workload and aggregates the client-side result.
func run(c *config) (*result, error) {
	// Users round-robin onto connections; a user's frames all ride one
	// connection, so per-user response order is observable end to end.
	connUsers := make([][]*user, c.conns)
	for i := 0; i < c.users; i++ {
		connUsers[i%c.conns] = append(connUsers[i%c.conns], &user{id: uint64(1 + i*13)})
	}

	// Closed-loop runs pregenerate every frame before the clock starts:
	// synthesising a frame (Rayleigh draws, MulVec, AWGN) costs the same
	// order as detecting it, and on a small host that client-side work
	// would otherwise share cores with the server and dominate the timed
	// window, masking exactly the server-side effects being measured.
	// Open-loop runs are duration-bound (frame count unknown up front)
	// and synthesise each frame in the pacing gap before its due time.
	var connReqs [][]*serve.DetectRequest
	if c.rate <= 0 {
		connReqs = make([][]*serve.DetectRequest, c.conns)
		for i, users := range connUsers {
			reqs := make([]*serve.DetectRequest, 0, c.frames*len(users))
			for n := 0; n < c.frames*len(users); n++ {
				q := new(serve.DetectRequest)
				if err := fillFrame(c, users[n%len(users)], q); err != nil {
					return nil, err
				}
				reqs = append(reqs, q)
			}
			connReqs[i] = reqs
		}
	}

	stats := make([]connStats, c.conns)
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < c.conns; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var reqs []*serve.DetectRequest
			if connReqs != nil {
				reqs = connReqs[i]
			}
			stats[i] = driveConn(c, i, connUsers[i], reqs, start)
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)

	res := &result{
		Config: map[string]any{
			"addr": c.addr, "spawn": c.spawn, "shards": c.shards,
			"queue": c.queue, "qam": c.qam, "npe": c.npe, "threshold": c.threshold, "reuse": c.reuse,
			"backend": c.backend, "conns": c.conns, "users": c.users,
			"frames": c.frames, "inflight": c.inflight, "rate": c.rate,
			"coherence": c.coherence, "seed": c.seed,
			"deadline": c.deadline.String(), "retries": c.retries, "fault": c.fault,
			"nr": c.nr, "nt": c.nt, "k": c.k, "s": c.s, "sigma2": c.sigma2,
		},
		ElapsedSeconds: elapsed.Seconds(),
	}
	if err := res.tally(stats); err != nil {
		return nil, err
	}
	return res, nil
}

// tally merges the connections' stats into res: counts, throughput over
// res.ElapsedSeconds, the StatusOK headline latency, per-status
// latencies and the generator's lateness.
func (res *result) tally(stats []connStats) error {
	var all, late []time.Duration
	byStatus := map[serve.Status][]time.Duration{}
	for i := range stats {
		if stats[i].err != nil {
			return stats[i].err
		}
		res.FramesSent += stats[i].sent
		res.FramesOK += stats[i].ok
		res.FramesRejected += stats[i].rejected
		res.FramesExpired += stats[i].expired
		res.FramesDegraded += stats[i].degraded
		res.FramesRetried += stats[i].retried
		all = append(all, stats[i].lat...)
		late = append(late, stats[i].late...)
		for status, lats := range stats[i].latBy {
			byStatus[status] = append(byStatus[status], lats...)
		}
	}
	if res.ElapsedSeconds > 0 {
		res.ThroughputFPS = float64(res.FramesOK) / res.ElapsedSeconds
	}
	if len(byStatus) > 0 {
		res.LatencyByStatus = make(map[string]latSummary, len(byStatus))
		for status, lats := range byStatus {
			res.LatencyByStatus[status.String()] = summarize(lats)
		}
	}
	if len(all) > 0 {
		ok := summarize(all)
		res.LatencyMeanUs = ok.MeanUs
		res.LatencyP50Us = ok.P50Us
		res.LatencyP95Us = ok.P95Us
		res.LatencyP99Us = ok.P99Us
	}
	if len(late) > 0 {
		gen := summarize(late)
		res.GenLateP50Us = gen.P50Us
		res.GenLateP99Us = gen.P99Us
	}
	return nil
}

// summarize sorts the samples in place and condenses them.
func summarize(lats []time.Duration) latSummary {
	sort.Slice(lats, func(a, b int) bool { return lats[a] < lats[b] })
	var sum time.Duration
	for _, d := range lats {
		sum += d
	}
	return latSummary{
		Count:  int64(len(lats)),
		MeanUs: float64(sum.Microseconds()) / float64(len(lats)),
		P50Us:  float64(pct(lats, 50).Microseconds()),
		P95Us:  float64(pct(lats, 95).Microseconds()),
		P99Us:  float64(pct(lats, 99).Microseconds()),
	}
}

// pct returns the p-th percentile of sorted samples (nearest-rank).
func pct(sorted []time.Duration, p int) time.Duration {
	idx := (len(sorted)*p + 99) / 100
	if idx > 0 {
		idx--
	}
	return sorted[idx]
}

// dialLoad dials the target, wrapping the connection in a FaultConn
// when -fault asks for injection. Each connection's plan is seeded from
// the workload seed and the connection index, so runs replay exactly.
func dialLoad(c *config, idx int) (*serve.Client, error) {
	if c.fault == "" {
		return serve.Dial(c.addr)
	}
	plan, err := faultPlanFor(c.fault, c.seed, idx)
	if err != nil {
		return nil, err
	}
	conn, err := net.Dial("tcp", c.addr)
	if err != nil {
		return nil, err
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	return serve.NewClient(serve.NewFaultConn(conn, plan)), nil
}

// faultPlanFor maps the -fault presets onto a FaultPlan. Only the
// lossless classes are offered — a load generator must complete its
// run; the lossy classes (corruption, resets) live in the chaos suite.
func faultPlanFor(spec string, seed uint64, idx int) (serve.FaultPlan, error) {
	plan := serve.FaultPlan{Seed: seed + uint64(idx)*0x9e3779b97f4a7c15}
	for _, part := range strings.Split(spec, ",") {
		switch strings.TrimSpace(part) {
		case "partial":
			plan.MaxWriteChunk = 7
		case "short":
			plan.MaxReadChunk = 5
		case "stutter":
			plan.StutterEvery = 13
			plan.Stutter = 200 * time.Microsecond
		case "":
		default:
			return plan, fmt.Errorf("-fault %q: unknown fault %q (want partial, short, stutter)", spec, part)
		}
	}
	return plan, nil
}

// driveConn runs one connection's workload: closed loop (in-flight
// window over pregenerated frames, Queue/Flush coalescing, optional
// overload retries) or open loop (inline-synthesised sends on a fixed
// schedule from start, with a concurrent reader).
func driveConn(c *config, idx int, users []*user, reqs []*serve.DetectRequest, start time.Time) connStats {
	st := connStats{latBy: map[serve.Status][]time.Duration{}}
	if len(users) == 0 {
		return st
	}
	cl, err := dialLoad(c, idx)
	if err != nil {
		st.err = err
		return st
	}
	defer cl.Close()

	if c.rate > 0 {
		st.err = openLoopConn(c, idx, start, cl, users, &st)
		return st
	}
	st.err = closedLoop(c, cl, reqs, &st)
	return st
}

// pending is one closed-loop frame on the wire: its request (kept for
// re-submission), original send time (latency spans retries) and how
// many times it has been re-submitted after StatusOverloaded.
type pending struct {
	q        *serve.DetectRequest
	t0       time.Time
	attempts int
}

// closedLoop drives the pregenerated frames through an in-flight
// window. Responses echo FrameID only, so outstanding frames are
// matched FIFO per FrameID: when several users have the same FrameID in
// flight the latency/retry attribution between them is approximate, but
// every frame is finalized exactly once — re-submission is safe because
// requests are idempotent by (UserID, FrameID).
func closedLoop(c *config, cl *serve.Client, reqs []*serve.DetectRequest, st *connStats) error {
	total := len(reqs)
	outstanding := make(map[uint64][]*pending, c.inflight)
	next, open, finalized := 0, 0, 0
	var resp serve.DetectResponse
	for finalized < total {
		for next < total && open < c.inflight {
			qp := reqs[next]
			next++
			open++
			st.sent++
			outstanding[qp.FrameID] = append(outstanding[qp.FrameID], &pending{q: qp, t0: time.Now()})
			if err := cl.Queue(qp); err != nil {
				return err
			}
		}
		if err := cl.Flush(); err != nil {
			return err
		}
		if err := cl.Recv(&resp); err != nil {
			return err
		}
		fifo := outstanding[resp.FrameID]
		if len(fifo) == 0 {
			return fmt.Errorf("unmatched response for frame %d", resp.FrameID)
		}
		p := fifo[0]
		outstanding[resp.FrameID] = fifo[1:]
		if resp.Status == serve.StatusOverloaded && p.attempts < c.retries {
			// Explicit backpressure with retry budget left: re-queue the
			// frame (flushed at the top of the next iteration) and keep it
			// open. Its latency keeps accruing from the first send.
			p.attempts++
			st.retried++
			st.sent++
			outstanding[resp.FrameID] = append(outstanding[resp.FrameID], p)
			if err := cl.Queue(p.q); err != nil {
				return err
			}
			continue
		}
		st.record(resp.Status, resp.ServedNPE, time.Since(p.t0))
		open--
		finalized++
	}
	return nil
}

// openLoopConn wires the open-loop pacer's prepare/send/recv hooks for
// connection idx: frame synthesis round-robin over the connection's
// users, ahead of each frame's due time, with a response matcher keyed
// by (user, frame).
// A frame's latency runs from its due time, not from when it went out:
// a send that falls behind is the client's delay, and it is charged to
// the frame. -retries does not apply here — an open-loop generator
// measures the server's behaviour at the offered rate, it does not add
// load to a server already shedding it.
func openLoopConn(c *config, idx int, start time.Time, cl *serve.Client, users []*user, st *connStats) error {
	// dueAt maps an on-the-wire (user, frame) key to its due time.
	// Guarded by mu: the open-loop mode reads responses on a separate
	// goroutine (Client.Send and Client.Recv are individually
	// thread-safe).
	type key struct{ user, frame uint64 }
	var mu sync.Mutex
	dueAt := make(map[key]time.Time, c.inflight*len(users)+1)
	var q serve.DetectRequest
	next := 0 // round-robin user cursor

	prepare := func() error {
		u := users[next]
		next = (next + 1) % len(users)
		return fillFrame(c, u, &q)
	}
	send := func(due time.Time) error {
		mu.Lock()
		dueAt[key{q.UserID, q.FrameID}] = due
		st.sent++
		mu.Unlock()
		return cl.Send(&q)
	}
	var resp serve.DetectResponse
	recv := func() error {
		if err := cl.Recv(&resp); err != nil {
			return err
		}
		// Responses echo FrameID only; recover the user by matching the
		// outstanding frame with that ID (FrameIDs are per-user
		// sequence numbers, unique per user).
		mu.Lock()
		lat := time.Duration(-1)
		for _, u := range users {
			k := key{u.id, resp.FrameID}
			if due, ok := dueAt[k]; ok {
				lat = time.Since(due)
				delete(dueAt, k)
				break
			}
		}
		if lat >= 0 {
			st.record(resp.Status, resp.ServedNPE, lat)
		}
		mu.Unlock()
		return nil
	}
	late, err := openLoop(c, idx, start, prepare, send, recv)
	st.late = late
	return err
}

// openLoop sends connection idx's share of the aggregate target rate on
// a fixed schedule: the run's g-th frame is due at start + g/rate, for
// every g < rate × duration, and connection idx sends every g ≡ idx
// (mod conns), whatever happened to the frames before it. A sender
// that falls behind sends the overdue frames back to back — it
// never skips one and never shifts the schedule, so the offered count
// is rate × duration and a stall shows up as latency, not as a lower
// offered rate. A concurrent reader records latencies as responses
// arrive (a lazily-read response would otherwise charge client-side
// batching to the server; an idle reader is woken by the next send,
// never by a poll), then drains what is still outstanding. Each frame
// is prepared before its due time — the first before the first sleep,
// every later one right after its predecessor's send — so neither a
// latency nor the lateness includes the client's own synthesis. It
// returns each send's lateness behind its due time.
func openLoop(c *config, idx int, start time.Time, prepare func() error, send func(due time.Time) error, recv func() error) ([]time.Duration, error) {
	total := int(float64(c.duration) * c.rate / float64(time.Second))
	stop := make(chan struct{})
	woke := make(chan struct{}, 1) // wakes a reader with nothing outstanding
	readerErr := make(chan error, 1)
	var sent atomic.Int64
	go func() {
		var recvd int64
		for {
			if recvd < sent.Load() {
				if err := recv(); err != nil {
					readerErr <- err
					return
				}
				recvd++
				continue
			}
			select {
			case <-woke:
			case <-stop:
				// The sender is done: drain the remainder, then report.
				for ; recvd < sent.Load(); recvd++ {
					if err := recv(); err != nil {
						readerErr <- err
						return
					}
				}
				readerErr <- nil
				return
			}
		}
	}()
	var late []time.Duration
	var err error
	for g := idx; g < total; g += c.conns {
		if err = prepare(); err != nil {
			break
		}
		due := start.Add(time.Duration(float64(g) * float64(time.Second) / c.rate))
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		late = append(late, time.Since(due))
		if err = send(due); err != nil {
			break
		}
		sent.Add(1)
		select {
		case woke <- struct{}{}:
		default:
		}
	}
	close(stop)
	if rerr := <-readerErr; err == nil {
		err = rerr
	}
	return late, err
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "flexload:", err)
	os.Exit(1)
}
