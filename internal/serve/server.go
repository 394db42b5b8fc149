package serve

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"flexcore/internal/core"
	"flexcore/internal/detector"
	"flexcore/internal/phy"
)

// Config configures a Server.
type Config struct {
	// Shards is the number of independent detection shards, each one
	// worker goroutine owning one detector: more parallelism is more
	// shards. Consistent user→shard routing (shardIndex) pins every
	// frame of one user to one shard, so per-user state — FIFO order and
	// the Prepare reuse cache — never crosses shards. Default 1.
	Shards int
	// WorkersPerShard must be 0 or 1: a shard is one worker.
	//
	// Deprecated: NewServer rejects values above 1; raise Shards instead.
	// The field is kept only because bench/serve.go assigns it and bench/
	// is frozen outside benchmark PRs; the next benchmark PR deletes both
	// (ROADMAP item 1).
	WorkersPerShard int
	// QueueDepth bounds each shard's admitted-but-not-yet-processing
	// backlog. A frame arriving at a full shard is rejected immediately
	// with StatusOverloaded — explicit backpressure, bounded memory.
	// Default 64.
	QueueDepth int
	// UserStateCap bounds each shard's table of per-user states
	// (in-flight frame counts + cross-frame Prepare-reuse bases). Past
	// the cap the oldest idle user is evicted and its reuse bases reset;
	// users with frames in flight are never evicted, so the table can
	// transiently exceed the cap by the in-flight user count. Default
	// 1024.
	UserStateCap int
	// DetectorFactory builds one detector per shard (detectors are
	// stateful across Prepare/Detect, so shards cannot share one).
	// Required. With core.Options.PathReuse enabled, the server keys
	// the coherence cache per user across frames; at ReuseThreshold 0
	// this is provably output-neutral (DESIGN.md §13).
	DetectorFactory func() detector.Detector

	// DegradeLadder lists descending N_PE rungs (e.g. 512→128→32 as
	// {128, 32} under a full N_PE of 512) the pressure controller steps
	// queued frames down as a shard's admission queue fills — FlexCore's
	// flexibility knob entering the serve path as load shedding: lowering
	// N_PE only relaxes the decision metric (the PR 2 monotonicity
	// invariant), so a degraded frame is a coarser answer, never a
	// corrupted one. A rung is a per-frame path cap on the worker's one
	// detector (phy.PathCapper), so a degraded frame goes through the
	// user's cross-frame reuse state like any other and is bit-identical
	// to offline detection at the rung's N_PE. Empty disables
	// degradation. Entries must be positive, strictly decreasing and
	// below the detector's own N_PE (a cap at or above it lifts nothing
	// and still reports the rung); the factory's detectors must then
	// accept a cap.
	DegradeLadder []int
	// DegradeFactory is ignored and never called.
	//
	// Deprecated: rungs no longer own detectors. The field is kept only
	// because bench/serve.go assigns it and bench/ is frozen outside
	// benchmark PRs; the next benchmark PR deletes both (ROADMAP item 1).
	DegradeFactory func(npe int) detector.Detector
	// DegradeStart is the queue-fill fraction (backlog/QueueDepth) at
	// which degradation begins; the ladder's rungs divide the remaining
	// fill range evenly. Default 0.5.
	DegradeStart float64

	// ReadTimeout bounds the arrival of a frame's remainder once its
	// header has been read: a peer that stalls mid-frame is disconnected
	// (counted in ConnTimeouts) instead of pinning the connection
	// goroutine. 0 disables.
	ReadTimeout time.Duration
	// IdleTimeout bounds the wait for the next frame header — the
	// idle-connection reaper. 0 disables.
	IdleTimeout time.Duration
	// WriteTimeout bounds each flush of a connection's response writer: a
	// peer that stops draining responses (slow-loris on the write side)
	// is disconnected instead of wedging the shard worker holding the
	// flush. 0 disables.
	WriteTimeout time.Duration
}

// withDefaults resolves the zero-value knobs.
func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = 1
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.UserStateCap <= 0 {
		c.UserStateCap = 1024
	}
	if c.DegradeStart <= 0 || c.DegradeStart >= 1 {
		c.DegradeStart = 0.5
	}
	return c
}

// task is one admitted detection request in flight: the decoded
// request, the connection to answer on, and every buffer the
// ingest→detect→respond path needs. Tasks are pooled and fully
// reused, so the steady-state serve loop allocates nothing.
type task struct {
	req     DetectRequest
	c       *serverConn
	user    *userState
	enq     time.Time // arrival timestamp (staleness budget + latency metric)
	rung    int       // pressure-ladder rung chosen at dequeue (0 = full N_PE)
	payload []byte    // response payload scratch
	wire    []byte    // framed response scratch

	// burst/emit are the frame-detection callbacks, bound once at task
	// construction so the hot loop passes pre-built funcs (no per-frame
	// closure allocation).
	burst func(k int) [][]complex128
	emit  func(k int, decisions [][]int)
}

// userState is one user's serve-side state on its home shard: the count
// of its admitted frames not yet answered, and the cross-frame Prepare
// reuse bases. inflight is guarded by the shard mutex. reuse is touched
// only by the shard's one worker, which takes the user's frames off one
// FIFO channel in admission order, and by eviction, which resets it
// only while inflight is 0; the mutex/channel handoff orders the two.
type userState struct {
	inflight int // admitted frames not yet answered; evictIdle skips the user while > 0
	reuse    core.ReuseState
}

// shard is one detection lane: an admission queue drained by one worker
// goroutine that owns the shard's detector.
type shard struct {
	// runnable is the admitted backlog in admission order. Capacity
	// QueueDepth: only sh.mu holders send, after seeing it not full, so
	// a send never blocks.
	runnable chan *task

	// fd wraps the worker's one detector (detectors are stateful) —
	// every rung of the degrade ladder runs on it, as a path cap.
	fd *phy.FrameDetector

	// dirty lists the connections holding buffered responses the worker
	// has not flushed yet. Flushed before the worker blocks on an empty
	// runnable queue — coalescing consecutive responses per connection
	// into one write while the shard is busy, without ever parking a
	// response behind an idle queue.
	dirty []*serverConn

	// mu guards the user table and the backlog high-watermark.
	mu      sync.Mutex
	users   map[uint64]*userState
	order   []uint64     // user insertion order (FIFO eviction scan)
	free    []*userState // evicted states recycled for new users
	waitHWM int          // high-watermark of the admitted backlog since start

	// statsMu publishes the detector's op counters to Metrics (the
	// worker writes them after every frame; Snapshot reads them).
	statsMu   sync.Mutex
	ops       detector.OpCount
	pre       core.PreprocessStats
	activeSum float64
	activeN   int64
}

// Server is the sharded, backpressured detection service. Build one
// with NewServer, feed it connections via Serve/ListenAndServe (TCP)
// or InProcess (tests), and stop it with Shutdown.
type Server struct {
	cfg    Config
	shards []*shard
	met    metrics

	taskPool sync.Pool

	// drainMu orders admission against shutdown: admitters hold the
	// read side while checking draining and enqueueing; Shutdown flips
	// draining under the write side, after which no admitter can be
	// mid-enqueue — closing the shard queues is then race-free.
	drainMu  sync.RWMutex
	draining bool

	workerWG sync.WaitGroup
	connWG   sync.WaitGroup

	connMu sync.Mutex
	conns  map[io.Closer]struct{}
	lis    net.Listener

	closed atomic.Bool
}

// NewServer builds the shards, starts their workers and returns a
// server ready to accept connections.
func NewServer(cfg Config) (*Server, error) {
	if cfg.DetectorFactory == nil {
		return nil, fmt.Errorf("serve: Config.DetectorFactory is required")
	}
	if w := cfg.WorkersPerShard; w != 0 && w != 1 {
		return nil, fmt.Errorf("serve: Config.WorkersPerShard %d: a shard is one worker; raise Config.Shards for more parallelism", w)
	}
	for i, npe := range cfg.DegradeLadder {
		if npe <= 0 || (i > 0 && npe >= cfg.DegradeLadder[i-1]) {
			return nil, fmt.Errorf("serve: Config.DegradeLadder must be positive and strictly decreasing")
		}
	}
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:   cfg,
		met:   metrics{start: time.Now()},
		conns: make(map[io.Closer]struct{}),
	}
	s.taskPool.New = func() any {
		t := &task{}
		t.burst = t.req.Burst
		t.emit = func(k int, decisions [][]int) {
			t.payload = appendDecisions(t.payload, decisions)
		}
		return t
	}
	s.shards = make([]*shard, cfg.Shards)
	for i := range s.shards {
		sh := &shard{
			runnable: make(chan *task, cfg.QueueDepth),
			fd:       phy.NewFrameDetector(cfg.DetectorFactory()),
			users:    make(map[uint64]*userState),
		}
		if len(cfg.DegradeLadder) > 0 && !sh.fd.SetPathCap(0) {
			return nil, fmt.Errorf("serve: Config.DegradeLadder needs detectors with a per-frame path cap (phy.PathCapper); %s has none", sh.fd.Detector().Name())
		}
		s.shards[i] = sh
	}
	for _, sh := range s.shards {
		s.workerWG.Add(1)
		go s.runWorker(sh)
	}
	return s, nil
}

// shardIndex maps a user ID to its shard: a SplitMix64 finalizer
// reduced modulo the shard count — uniform, stable across restarts
// and independent of Go's per-process map hashing, so routing is
// consistent for every server instance.
//
//flexcore:noalloc
func shardIndex(userID uint64, shards int) int {
	z := userID + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int(z % uint64(shards))
}

// runWorker is the shard's one worker: it takes every admitted frame
// off the shard's queue, in admission order, until Shutdown closes the
// queue, then flushes its buffered responses. One consumer of one FIFO
// channel is what makes per-user order and serialised access to a
// user's reuse state structural: all of a user's frames land on its
// home shard's queue.
func (s *Server) runWorker(sh *shard) {
	defer s.workerWG.Done()
	for t := s.nextTask(sh); t != nil; t = s.nextTask(sh) {
		s.begin(sh, t)
		if s.expired(t) {
			s.expire(t)
		} else {
			s.process(sh, t)
		}
		s.buffer(sh, t)
		s.complete(sh, t)
	}
	s.flushDirty(sh)
}

// nextTask returns the next admitted frame, or nil once the queue is
// closed and drained. Before blocking on an empty queue it flushes the
// worker's buffered responses — the coalescing contract: responses may
// ride in one write with their successors while work is queued, but
// never wait behind an idle queue.
func (s *Server) nextTask(sh *shard) *task {
	select {
	case t, ok := <-sh.runnable:
		if !ok {
			return nil
		}
		return t
	default:
	}
	s.flushDirty(sh)
	t, ok := <-sh.runnable
	if !ok {
		return nil
	}
	return t
}

// begin picks a dequeued frame's pressure-ladder rung from the backlog
// depth it was taken from: itself plus the frames queued behind it. The
// degradation decision is made at dequeue, when the queue state is
// current, not at admission, when it may be stale by a whole backlog.
//
//flexcore:noalloc
func (s *Server) begin(sh *shard, t *task) {
	t.rung = s.rung(len(sh.runnable) + 1)
}

// rung maps an instantaneous queue depth to a DegradeLadder rung: 0
// (full N_PE) below DegradeStart·QueueDepth, then the rungs divide the
// remaining fill range evenly, with the coarsest rung reached as the
// queue approaches capacity.
//
//flexcore:noalloc
func (s *Server) rung(depth int) int {
	n := len(s.cfg.DegradeLadder)
	if n == 0 || depth <= 0 {
		return 0
	}
	fill := float64(depth) / float64(s.cfg.QueueDepth)
	start := s.cfg.DegradeStart
	if fill < start {
		return 0
	}
	if fill >= 1 {
		return n
	}
	r := 1 + int((fill-start)*float64(n)/(1-start))
	if r > n {
		r = n
	}
	return r
}

// expired reports whether t's staleness budget elapsed while it sat in
// the admitted backlog.
func (s *Server) expired(t *task) bool {
	return stale(t.enq, t.req.DeadlineMicros, time.Now())
}

// stale reports whether a frame that arrived at enq with the given
// staleness budget (µs, 0 = none) has aged out by now.
//
//flexcore:noalloc
func stale(enq time.Time, budgetMicros uint64, now time.Time) bool {
	if budgetMicros == 0 {
		return false
	}
	age := now.Sub(enq)
	return age > 0 && uint64(age/time.Microsecond) > budgetMicros
}

// expire answers an admitted frame whose budget elapsed in the queue
// with a bare StatusExpired response — shedding the detection work
// entirely. The frame still counts as completed (the accepted −
// completed in-flight ledger must drain to zero) as well as expired.
//
//flexcore:noalloc
func (s *Server) expire(t *task) {
	t.payload = appendRespHeader(t.payload[:0], t.req.FrameID, StatusExpired, 0, 0, 0, 0)
	t.wire = AppendFrame(t.wire[:0], MsgResult, t.payload)
	s.met.expired.Add(1)
	s.met.observe(time.Since(t.enq))
	s.met.completed.Add(1)
}

// process runs the ingest→detect→respond hot path for one admitted
// task: cap the shard's detector at the task's rung (0 lifts the cap),
// install the user's cross-frame reuse bases — degraded frames share
// them: a base selected at a larger N_PE serves the rung by prefix —
// detect every subcarrier burst through the shard's FrameDetector,
// streaming the decisions straight into the response payload, frame it,
// publish the detector's op counters and record the latency. Everything
// it touches is task-, user- or shard-owned and reused — the
// AllocsPerRun gate (alloc_test.go) pins this path at 0 allocs/op in
// steady state.
//
//flexcore:noalloc
func (s *Server) process(sh *shard, t *task) {
	q := &t.req
	npe := 0
	if t.rung > 0 {
		npe = s.cfg.DegradeLadder[t.rung-1]
		s.met.degraded.Add(1)
	}
	sh.fd.SetPathCap(npe)
	if t.user != nil {
		sh.fd.SetReuseState(&t.user.reuse)
	}
	t.payload = appendRespHeader(t.payload[:0], q.FrameID, StatusOK, npe, q.Nt, q.Subcarriers, q.Symbols)
	if err := sh.fd.DetectFrame(q.H(), q.Sigma2, t.burst, t.emit); err != nil {
		// Geometry was validated at decode time, so detector errors are
		// unexpected — answer them as an explicit rejection, never a
		// silent drop.
		t.payload = appendRespHeader(t.payload[:0], q.FrameID, StatusInvalid, 0, 0, 0, 0)
		s.met.rejectedInvalid.Add(1)
	}
	sh.fd.SetReuseState(nil)
	t.wire = AppendFrame(t.wire[:0], MsgResult, t.payload)
	s.publish(sh)
	s.met.observe(time.Since(t.enq))
	s.met.completed.Add(1)
}

// buffer queues t's framed response on its connection's buffered writer
// and marks the connection dirty for the next flush. The bufio writer
// auto-flushes when full, so a backlog burst still drains with bounded
// buffering; write errors surface here (sticky) or at flush.
//
//flexcore:noalloc
func (s *Server) buffer(sh *shard, t *task) {
	c := t.c
	c.mu.Lock()
	c.armWrite()
	_, err := c.bw.Write(t.wire) //lint:ignore lockscope c.mu serializes the conn's buffered writer; the hold is bounded by the armWrite deadline, and a stalled conn is condemned, not waited on
	c.mu.Unlock()
	if err != nil {
		c.condemn(s, err)
		return
	}
	sh.dirty = append(sh.dirty, c) //lint:ignore noalloc amortised: the dirty list reuses its high-water capacity across flush cycles
}

// flushDirty flushes every connection the shard's worker buffered
// responses on since the last flush. Duplicate entries are harmless:
// flushing an empty bufio writer is a no-op.
func (s *Server) flushDirty(sh *shard) {
	for i, c := range sh.dirty {
		c.mu.Lock()
		c.armWrite()
		err := c.bw.Flush() //lint:ignore lockscope c.mu serializes the conn's buffered writer; the hold is bounded by the armWrite deadline, and a stalled conn is condemned, not waited on
		c.mu.Unlock()
		if err != nil {
			c.condemn(s, err)
		}
		sh.dirty[i] = nil
	}
	sh.dirty = sh.dirty[:0]
}

// complete releases an answered task and its hold on the user's state:
// once the user's in-flight count is back to 0, evictIdle may reset and
// recycle the state.
//
//flexcore:noalloc
func (s *Server) complete(sh *shard, t *task) {
	sh.mu.Lock()
	t.user.inflight--
	sh.mu.Unlock()
	s.release(t)
}

// publish copies the shard detector's cumulative counters under the
// shard's metrics lock.
//
//flexcore:noalloc
func (s *Server) publish(sh *shard) {
	ops := sh.fd.Detector().OpCount()
	pre := sh.fd.PreprocessStats()
	activeSum, activeN := sh.fd.ActivePEs()
	sh.statsMu.Lock()
	sh.ops, sh.pre = ops, pre
	sh.activeSum, sh.activeN = activeSum, activeN
	sh.statsMu.Unlock()
}

// release returns a task to the pool.
//
//flexcore:noalloc
func (s *Server) release(t *task) {
	t.c = nil
	t.user = nil
	t.rung = 0
	s.taskPool.Put(t) //lint:ignore noalloc t is already a pointer — Put's any parameter boxes no value
}

// userFor returns the shard's state for user id, creating (and, at the
// cap, evicting the oldest idle user to recycle) as needed. Called
// under sh.mu; the new-user path may allocate, which is why it sits
// outside the noalloc-annotated admit — in steady state the user table
// is warm and this is one map lookup.
func (sh *shard) userFor(id uint64, capacity int) *userState {
	if u, ok := sh.users[id]; ok {
		return u
	}
	if len(sh.users) >= capacity {
		sh.evictIdle()
	}
	var u *userState
	if n := len(sh.free); n > 0 {
		u = sh.free[n-1]
		sh.free[n-1] = nil
		sh.free = sh.free[:n-1]
	} else {
		u = &userState{}
	}
	sh.users[id] = u
	sh.order = append(sh.order, id)
	return u
}

// evictIdle drops the longest-tracked user with no frames in flight,
// resetting its reuse bases and recycling its storage. The scan walks
// the insertion-order slice (never the map: iteration order must not
// influence behaviour); if every tracked user has a frame in flight
// nothing is evicted and the table transiently overshoots the cap.
func (sh *shard) evictIdle() {
	for i, id := range sh.order {
		u := sh.users[id]
		if u.inflight > 0 {
			continue
		}
		delete(sh.users, id)
		u.reuse.Reset()
		sh.free = append(sh.free, u)
		copy(sh.order[i:], sh.order[i+1:])
		sh.order = sh.order[:len(sh.order)-1]
		return
	}
}

// admit routes a decoded request into its shard's queue, or rejects it
// explicitly: StatusDraining once shutdown has begun, StatusOverloaded
// when the shard's queue is full. Admission never blocks — backpressure
// is a response code, not a stalled connection. The send happens under
// sh.mu, so queue order is admission order, for one user across
// connections too.
//
//flexcore:noalloc
func (s *Server) admit(t *task) {
	s.drainMu.RLock()
	defer s.drainMu.RUnlock()
	if s.draining {
		s.met.rejectedDraining.Add(1)
		t.c.reject(s, t.req.FrameID, StatusDraining) //lint:ignore lockscope drainMu is read-held; the rejection write is bounded by the conn's armWrite deadline and a stalled conn is condemned, not waited on
		s.release(t)
		return
	}
	if s.expired(t) {
		// Already stale at admission (a tiny budget or an ingest stall):
		// shed before the frame ever occupies queue capacity. Never
		// counted accepted, so the in-flight ledger is untouched.
		s.met.expired.Add(1)
		t.c.reject(s, t.req.FrameID, StatusExpired) //lint:ignore lockscope drainMu is read-held; the rejection write is bounded by the conn's armWrite deadline and a stalled conn is condemned, not waited on
		s.release(t)
		return
	}
	sh := s.shards[shardIndex(t.req.UserID, len(s.shards))]
	sh.mu.Lock()
	depth := len(sh.runnable)
	if depth == cap(sh.runnable) {
		sh.mu.Unlock()
		s.met.rejectedOverload.Add(1)
		t.c.reject(s, t.req.FrameID, StatusOverloaded) //lint:ignore lockscope drainMu is read-held; the rejection write is bounded by the conn's armWrite deadline and a stalled conn is condemned, not waited on
		s.release(t)
		return
	}
	sh.waitHWM = max(sh.waitHWM, depth+1)
	t.user = sh.userFor(t.req.UserID, s.cfg.UserStateCap)
	t.user.inflight++
	s.met.accepted.Add(1)
	// Never blocks: only sh.mu holders send, and the queue was just seen
	// not full.
	sh.runnable <- t //lint:ignore lockscope only sh.mu holders send and the queue was seen not full under it, so this send never blocks
	sh.mu.Unlock()
}

// Connection I/O buffer sizes. The write buffer is sized for a burst of
// small responses (the dominant shape: a 5×4, 6-subcarrier frame's
// response is ~160 bytes) so coalesced flushing turns a backlog drain
// into a handful of syscalls; larger responses auto-flush through bufio
// in connWriteBuf-sized writes, which keeps per-connection memory
// bounded under load.
const (
	connReadBuf  = 64 << 10
	connWriteBuf = 64 << 10
)

// serverConn is one client connection: a buffered reader owned by the
// connection goroutine and a mutex-serialised buffered writer shared
// by the shard workers responding on it. When the transport supports
// deadlines (net.Conn — TCP and net.Pipe both do), the configured
// read/idle/write budgets are armed around the blocking spots so one
// stalled peer can neither pin its connection goroutine nor wedge a
// shard worker mid-flush.
type serverConn struct {
	rwc io.ReadWriteCloser
	br  *bufio.Reader
	dl  net.Conn      // non-nil when rwc supports deadlines
	wt  time.Duration // write-stall budget per flush (0 = none)

	// armed tracks whether a read deadline is currently set, so the
	// disabled-timeout path never issues deadline syscalls. Touched only
	// by the connection goroutine.
	armed bool

	// srvClosed records a server-initiated close (deadline expiry or
	// write failure), so the connection goroutine's resulting read error
	// is not miscounted as a peer framing fault.
	srvClosed atomic.Bool

	mu sync.Mutex
	bw *bufio.Writer

	// rejection scratch, touched only by the connection goroutine.
	rejPayload []byte
	rejWire    []byte
}

// armRead sets (or, for d ≤ 0, clears) the connection's read deadline.
func (c *serverConn) armRead(d time.Duration) {
	if c.dl == nil {
		return
	}
	if d <= 0 {
		if c.armed {
			c.dl.SetReadDeadline(time.Time{})
			c.armed = false
		}
		return
	}
	c.dl.SetReadDeadline(time.Now().Add(d))
	c.armed = true
}

// armWrite arms the write-stall deadline ahead of a buffered write or
// flush. Called under c.mu.
func (c *serverConn) armWrite() {
	if c.dl == nil || c.wt <= 0 {
		return
	}
	c.dl.SetWriteDeadline(time.Now().Add(c.wt))
}

// condemn closes a connection whose response path failed (write error
// or write-stall timeout): the close unblocks the connection's reader,
// so the whole conn winds down instead of accumulating per-response
// stalls. Counted once per connection.
func (c *serverConn) condemn(s *Server, err error) {
	if c.srvClosed.Swap(true) {
		return
	}
	if isTimeout(err) {
		s.met.connTimeouts.Add(1)
	}
	s.met.writeErrors.Add(1)
	c.rwc.Close()
}

// isTimeout reports whether err is a deadline expiry.
func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// write frames one response onto the connection and flushes immediately
// (the rejection path: a rejected frame must never wait for detection
// work to coalesce with).
func (c *serverConn) write(frame []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.armWrite()
	if _, err := c.bw.Write(frame); err != nil { //lint:ignore lockscope c.mu serializes the conn's buffered writer; the hold is bounded by the armWrite deadline, and a stalled conn is condemned, not waited on
		return err
	}
	return c.bw.Flush() //lint:ignore lockscope same bounded write window under the conn mutex
}

// reject answers a request with a bare status response.
//
//flexcore:noalloc
func (c *serverConn) reject(s *Server, frameID uint64, st Status) {
	c.rejPayload = appendRespHeader(c.rejPayload[:0], frameID, st, 0, 0, 0, 0)
	c.rejWire = AppendFrame(c.rejWire[:0], MsgResult, c.rejPayload)
	if err := c.write(c.rejWire); err != nil {
		c.condemn(s, err)
	}
}

// readRequest reads one frame off the connection with the configured
// hygiene deadlines armed around the two blocking spots: IdleTimeout
// while waiting for the next header (the idle-connection reaper, which
// also bounds a stalled partial header) and ReadTimeout for the
// payload once a header has arrived (the slow-loris guard — a peer
// that trickles a frame cannot pin the goroutine past it). It mirrors
// wire.ReadFrame's buffer reuse and error contract, except that a
// deadline expiry surfaces as the transport's timeout error so the
// caller can classify it apart from peer framing faults.
func (s *Server) readRequest(c *serverConn, buf []byte) (typ MsgType, payload, bufOut []byte, err error) {
	if cap(buf) < headerSize {
		buf = make([]byte, headerSize)
	}
	c.armRead(s.cfg.IdleTimeout)
	if _, err := io.ReadFull(c.br, buf[:headerSize]); err != nil {
		if err == io.EOF {
			return 0, nil, buf, io.EOF
		}
		if isTimeout(err) {
			return 0, nil, buf, err
		}
		return 0, nil, buf, ErrTruncated
	}
	typ, n, crc, err := parseHeader(buf[:headerSize])
	if err != nil {
		return 0, nil, buf, err
	}
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	c.armRead(s.cfg.ReadTimeout)
	if _, err := io.ReadFull(c.br, buf); err != nil {
		if isTimeout(err) {
			return 0, nil, buf, err
		}
		return 0, nil, buf, ErrTruncated
	}
	c.armRead(0)
	if crc32.ChecksumIEEE(buf) != crc {
		return 0, nil, buf, ErrChecksum
	}
	return typ, buf, buf, nil
}

// handleConn runs one connection's ingest loop: read a frame, decode
// it into a pooled task, admit it. Payload-level errors are answered
// with StatusInvalid and the connection survives; framing errors are
// unrecoverable and close it; hygiene-deadline expiries close it and
// count in ConnTimeouts instead of BadFrames.
func (s *Server) handleConn(rwc io.ReadWriteCloser) {
	defer s.connWG.Done()
	defer rwc.Close()
	defer s.untrackConn(rwc)
	c := &serverConn{rwc: rwc, br: bufio.NewReaderSize(rwc, connReadBuf), bw: bufio.NewWriterSize(rwc, connWriteBuf), wt: s.cfg.WriteTimeout}
	if nc, ok := rwc.(net.Conn); ok {
		c.dl = nc
	}
	var buf []byte
	for {
		typ, payload, nbuf, err := s.readRequest(c, buf)
		buf = nbuf
		if err != nil {
			// A non-EOF error after Shutdown's force-close phase is the
			// server unblocking its own reader (the peer's FIN may still
			// be in flight when the fd closes locally), not a peer
			// framing fault; the same goes for a connection the response
			// path already condemned. Deadline expiries are the hygiene
			// layer reaping a stalled peer. Only genuine framing faults
			// count as bad frames.
			switch {
			case err == io.EOF || s.forceClosed() || c.srvClosed.Load():
			case isTimeout(err):
				s.met.connTimeouts.Add(1)
			default:
				s.met.badFrames.Add(1)
			}
			return
		}
		if typ != MsgDetect {
			s.met.badFrames.Add(1)
			return
		}
		t := s.taskPool.Get().(*task)
		if err := t.req.Decode(payload); err != nil {
			s.met.rejectedInvalid.Add(1)
			c.reject(s, peekFrameID(payload), StatusInvalid)
			s.release(t)
			continue
		}
		t.c = c
		t.enq = time.Now()
		s.admit(t)
	}
}

// trackConn registers a live connection (for forced close at the end
// of Shutdown) and reports whether the server still accepts it.
func (s *Server) trackConn(c io.Closer) bool {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	if s.conns == nil {
		return false
	}
	s.conns[c] = struct{}{}
	return true
}

// forceClosed reports whether Shutdown has entered its force-close
// phase (the connection table is retired before the conns are closed,
// so any read error surfacing afterwards is server-initiated).
func (s *Server) forceClosed() bool {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	return s.conns == nil
}

// untrackConn removes a closed connection.
func (s *Server) untrackConn(c io.Closer) {
	s.connMu.Lock()
	delete(s.conns, c)
	s.connMu.Unlock()
}

// startConn registers rwc and spawns its handler unless shutdown has
// begun (the drainMu read lock orders the connWG.Add against
// Shutdown's Wait).
func (s *Server) startConn(rwc io.ReadWriteCloser) bool {
	s.drainMu.RLock()
	defer s.drainMu.RUnlock()
	if s.draining || !s.trackConn(rwc) {
		rwc.Close()
		return false
	}
	s.connWG.Add(1)
	go s.handleConn(rwc)
	return true
}

// Serve accepts connections on lis until Shutdown closes it. TCP
// connections get TCP_NODELAY set explicitly: response batching is the
// server's decision (buffered writers + coalesced flushing), not the
// kernel's — Nagle would add delayed-ACK latency on top of flushes the
// server already sized. It returns nil after a graceful shutdown, or
// the first accept error.
func (s *Server) Serve(lis net.Listener) error {
	s.connMu.Lock()
	s.lis = lis
	s.connMu.Unlock()
	for {
		conn, err := lis.Accept()
		if err != nil {
			if s.closed.Load() {
				return nil
			}
			return err
		}
		if tc, ok := conn.(*net.TCPConn); ok {
			tc.SetNoDelay(true)
		}
		s.startConn(conn)
	}
}

// ListenAndServe listens on the TCP address and serves until Shutdown.
func (s *Server) ListenAndServe(addr string) error {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(lis)
}

// InProcess returns a Client connected to the server through an
// in-memory synchronous pipe — the same codec, connection handling and
// admission path as TCP, no sockets. It is the transport of the e2e
// suite. The returned client must be closed by the caller; a client
// obtained after Shutdown has begun receives io errors.
func (s *Server) InProcess() *Client {
	server, client := net.Pipe()
	if !s.startConn(server) {
		client.Close()
	}
	return NewClient(client)
}

// Draining reports whether Shutdown has begun (new work is being
// rejected with StatusDraining).
func (s *Server) Draining() bool {
	s.drainMu.RLock()
	defer s.drainMu.RUnlock()
	return s.draining
}

// Shutdown gracefully drains the server: it stops accepting
// connections and requests (new frames are rejected with
// StatusDraining), lets every admitted frame detect and respond, then
// closes the remaining connections and the worker detectors. It
// returns nil on a complete drain, or ctx's error if the context
// expires first (workers keep draining in the background; connections
// are then closed on the spot so readers unblock).
func (s *Server) Shutdown(ctx context.Context) error {
	if s.closed.Swap(true) {
		return nil
	}
	s.connMu.Lock()
	if s.lis != nil {
		s.lis.Close()
	}
	s.connMu.Unlock()

	s.drainMu.Lock()
	s.draining = true
	s.drainMu.Unlock()
	// No admitter can be mid-enqueue past this point: close the queues
	// so the workers drain the backlog — every admitted task is in its
	// shard's runnable queue — and exit.
	for _, sh := range s.shards {
		close(sh.runnable)
	}

	done := make(chan struct{})
	go func() {
		s.workerWG.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
	}

	// All drained responses are written; unblock the connection readers.
	s.connMu.Lock()
	conns := s.conns
	s.conns = nil
	s.connMu.Unlock()
	for c := range conns {
		c.Close()
	}
	if err != nil {
		return err
	}
	s.connWG.Wait()
	return nil
}
