package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"flexcore/internal/serve"
)

// target is what the load driver sends frames to: a serve.Client in
// the benchmark, a stub with scripted latencies in the tests.
type target interface {
	// Send puts one request on the wire before it returns.
	Send(q *serve.DetectRequest) error
	// Recv blocks for the next response.
	Recv(resp *serve.DetectResponse) error
}

// sentFrame is what a connection's sender tells its reader about one
// frame on the wire.
type sentFrame struct {
	user int    // ring user index
	seq  uint64 // the user's frame sequence number
	slot int    // ring index of the frame's bytes and reference
	// due is when the frame was scheduled (open loop) or sent (closed
	// loop); sent is when Send was called. Nanoseconds since the phase
	// started. Latency runs from due, so a stall that delays later
	// sends is charged to the frames it delayed.
	due, sent int64
}

// frameID packs (user, seq) into the one token the wire echoes.
func frameID(user int, seq uint64) uint64 { return uint64(user)<<48 | seq&(1<<48-1) }

// matcher pairs responses with frames on the wire by (user, frame).
// The service completes one user's frames in that user's send order and
// different users' frames in any order, so outstanding frames are kept
// FIFO per user and a completed frame must be the head of its user's
// queue; anything else is a protocol violation, not a slow frame. A
// refusal (overloaded, expired at admission) is answered on the spot
// and may overtake the user's queued frames. It is owned by the
// connection's reader goroutine.
type matcher struct {
	queue       [][]sentFrame // per user, oldest first
	outstanding int
}

func newMatcher(users int) *matcher {
	return &matcher{queue: make([][]sentFrame, users)}
}

func (m *matcher) add(f sentFrame) {
	m.queue[f.user] = append(m.queue[f.user], f)
	m.outstanding++
}

// match removes and returns the outstanding frame a response names.
// completed says the response carries a detection result and so must
// respect the user's FIFO order.
func (m *matcher) match(id uint64, completed bool) (sentFrame, error) {
	u, seq := int(id>>48), id&(1<<48-1)
	if u >= len(m.queue) {
		return sentFrame{}, fmt.Errorf("response for unknown user %d", u)
	}
	q := m.queue[u]
	for i, f := range q {
		if f.seq != seq {
			continue
		}
		if i > 0 && completed {
			return sentFrame{}, fmt.Errorf("user %d: frame %d completed before the older frame %d", u, seq, q[0].seq)
		}
		m.queue[u] = append(q[:i], q[i+1:]...)
		m.outstanding--
		return f, nil
	}
	return sentFrame{}, fmt.Errorf("response for user %d frame %d, which is not outstanding", u, seq)
}

// phaseSpec describes one timed phase of a serve workload.
type phaseSpec struct {
	name    string
	windows int
	window  time.Duration
	// rate is the offered frames per second summed over the
	// connections (open loop, latency from each frame's due time);
	// 0 runs closed loop with serveInflight frames in flight per
	// connection.
	rate float64
	// deadline is stamped into every request as DeadlineMicros.
	deadline uint64
	// traced records one span per round trip.
	traced bool
}

func (p phaseSpec) length() time.Duration { return time.Duration(p.windows) * p.window }

// paced reports whether the phase is open loop.
func (p phaseSpec) paced() bool { return p.rate > 0 }

// outcomes counts what became of the frames a phase attempted. Every
// frame lands in exactly one of ok, wrong, rejected, expired; degraded
// is the part of ok served below the full N_PE.
type outcomes struct {
	attempted, ok, wrong, rejected, expired, degraded int
}

func (o *outcomes) add(b outcomes) {
	o.attempted += b.attempted
	o.ok += b.ok
	o.wrong += b.wrong
	o.rejected += b.rejected
	o.expired += b.expired
	o.degraded += b.degraded
}

// failed is every attempted frame that was not answered StatusOK with
// decisions identical to the offline reference.
func (o outcomes) failed() int { return o.attempted - o.ok }

// phaseResult is one phase's merged measurements.
type phaseResult struct {
	spec    phaseSpec
	windows []window
	outcomes
	lateMicros []float64 // open loop: how late each send ran
	// sendLatSumMicros sums latency from the actual send over answered
	// frames (answered of them), for the client-minus-server split.
	sendLatSumMicros float64
	answered         int
	// backlog is the number of frames still unanswered when the last
	// frame of the phase was sent.
	backlog int
	// errs are the connections' transport or protocol failures.
	errs  []error
	spans *tracer
}

// connLoad is one connection's side of the load: its target, the ring
// users it carries and how far each has advanced through the ring.
type connLoad struct {
	tgt   target
	ring  *ring
	users []int    // ring user indices riding this connection
	seq   []uint64 // next sequence number per entry of users
	next  int      // round-robin cursor into users
}

// nextFrame advances the connection's round-robin and returns the frame
// to send with its wire fields stamped.
func (c *connLoad) nextFrame(deadline uint64) (sentFrame, *serve.DetectRequest) {
	i := c.next
	c.next = (c.next + 1) % len(c.users)
	return c.frameOf(i, deadline)
}

// frameOf returns the next frame of the connection's i-th user.
func (c *connLoad) frameOf(i int, deadline uint64) (sentFrame, *serve.DetectRequest) {
	u, seq := c.users[i], c.seq[i]
	c.seq[i]++
	slot := c.ring.slot(u, seq)
	q := c.ring.reqs[slot]
	q.FrameID, q.DeadlineMicros = frameID(u, seq), deadline
	return sentFrame{user: u, seq: seq, slot: slot}, q
}

// connPhase is one connection's state for one phase, split by owner so
// the sender and reader goroutines share nothing but the channels.
type connPhase struct {
	c     *connLoad
	spec  phaseSpec
	index int // connection index, for the open-loop phase offset
	conns int
	start time.Time

	// pending carries each frame's bookkeeping from sender to reader,
	// enqueued before the frame is sent so a response can never
	// overtake it. Its buffer bounds the frames an open loop may have
	// outstanding: far above what any phase reaches unless the server
	// stalls for over a second, at which point the sender blocks
	// rather than growing memory.
	pending chan sentFrame
	// tokens is the closed-loop window: the sender takes one per send,
	// the reader returns one per response.
	tokens chan struct{}
	// quit is closed by the reader when it fails, so the sender stops.
	quit  chan struct{}
	recvd atomic.Int64

	// sender-owned
	sent    int
	late    []float64
	backlog int
	sendErr error

	// reader-owned
	windows []window
	out     outcomes
	sendLat float64
	spans   *tracer
	recvErr error
}

const maxOutstanding = 4096

func (p *connPhase) now() int64 { return int64(time.Since(p.start)) }

// send runs the connection's sender until the phase ends.
func (p *connPhase) send() {
	defer close(p.pending)
	if p.spec.paced() {
		p.sendPaced()
	} else {
		p.sendClosed()
	}
	p.backlog = p.sent - int(p.recvd.Load())
}

// put hands one frame to the reader and sends it.
func (p *connPhase) put(due int64) bool {
	f, q := p.c.nextFrame(p.spec.deadline)
	f.sent = p.now()
	if due < 0 {
		due = f.sent
	}
	f.due = due
	select {
	case p.pending <- f:
	case <-p.quit:
		return false
	}
	p.sent++
	if err := p.c.tgt.Send(q); err != nil {
		p.sendErr = fmt.Errorf("send: %w", err)
		return false
	}
	return true
}

// sendClosed keeps the closed-loop window full until the phase ends.
func (p *connPhase) sendClosed() {
	end := time.NewTimer(p.spec.length() - time.Since(p.start))
	defer end.Stop()
	for {
		select {
		case <-p.tokens:
		case <-end.C:
			return
		case <-p.quit:
			return
		}
		// A token and the end of the phase can be ready together; the
		// phase end wins.
		if p.now() >= int64(p.spec.length()) || !p.put(-1) {
			return
		}
	}
}

// sendPaced sends on a fixed schedule: this connection's i-th frame is
// due at offset + i·interval whatever happened to the frames before it.
// A sender that falls behind sends the overdue frames back to back —
// it never skips one and never shifts the schedule, so the offered
// count is a function of the rate alone.
func (p *connPhase) sendPaced() {
	interval := float64(time.Second) * float64(p.conns) / p.spec.rate
	offset := interval * float64(p.index) / float64(p.conns)
	n := int((float64(p.spec.length()) - offset) / interval)
	for i := 0; i < n; i++ {
		due := int64(offset + float64(i)*interval)
		if d := due - p.now(); d > 0 {
			time.Sleep(time.Duration(d))
		}
		p.late = append(p.late, float64(p.now()-due)/1e3)
		if !p.put(due) {
			return
		}
	}
}

// recv runs the connection's reader until every frame the sender put on
// the wire is answered.
func (p *connPhase) recv(verify func(slot int, resp *serve.DetectResponse) outcomes) {
	m := newMatcher(p.c.ring.w.users)
	var resp serve.DetectResponse
	open := true
	for {
		if m.outstanding == 0 {
			if !open {
				return
			}
			f, ok := <-p.pending
			if !ok {
				return
			}
			m.add(f)
		}
		err := p.c.tgt.Recv(&resp)
		t := p.now()
		if err != nil {
			p.recvErr = fmt.Errorf("recv: %w", err)
			close(p.quit)
			return
		}
		// The answered frame may have been sent after Recv began
		// waiting: take in everything the sender has announced since.
		// An announcement always precedes its Send, so the frame this
		// response answers is among them.
		for drained := false; open && !drained; {
			select {
			case f, ok := <-p.pending:
				if ok {
					m.add(f)
				} else {
					open = false
				}
			default:
				drained = true
			}
		}
		f, err := m.match(resp.FrameID, resp.Status == serve.StatusOK)
		if err != nil {
			p.recvErr = err
			close(p.quit)
			return
		}
		p.recvd.Add(1)
		o := verify(f.slot, &resp)
		p.out.add(o)
		p.sendLat += float64(t-f.sent) / 1e3
		// Closed loop: a window holds the frames that completed in it,
		// and completions after the phase end (the drain) count for
		// correctness only. Open loop: a window holds the frames that
		// were due in it.
		at := t
		if p.spec.paced() {
			at = f.due
		}
		if wi := int(at / int64(p.spec.window)); wi < len(p.windows) {
			p.windows[wi].ok += o.ok
			p.windows[wi].lat = append(p.windows[wi].lat, float64(t-f.due)/1e3)
		}
		if p.spans != nil {
			p.spans.add(spanLoadRoundtrip, -1, resp.FrameID, f.sent, t, 1)
		}
		if !p.spec.paced() {
			p.tokens <- struct{}{}
		}
	}
}

// runPhase drives every connection through one phase and merges what
// they measured. Both goroutines of every connection have exited when
// it returns.
func runPhase(conns []*connLoad, spec phaseSpec, verify func(slot int, resp *serve.DetectResponse) outcomes) phaseResult {
	start := time.Now()
	phases := make([]*connPhase, len(conns))
	var wg sync.WaitGroup
	for i, c := range conns {
		p := &connPhase{
			c: c, spec: spec, index: i, conns: len(conns), start: start,
			pending: make(chan sentFrame, maxOutstanding),
			tokens:  make(chan struct{}, serveInflight),
			quit:    make(chan struct{}),
			windows: make([]window, spec.windows),
		}
		for j := 0; j < serveInflight; j++ {
			p.tokens <- struct{}{}
		}
		if spec.traced {
			p.spans = newTracer(start, 4096)
		}
		phases[i] = p
		wg.Add(2)
		go func() {
			defer wg.Done()
			p.send()
		}()
		go func() {
			defer wg.Done()
			p.recv(verify)
		}()
	}
	wg.Wait()

	res := phaseResult{spec: spec, windows: make([]window, spec.windows)}
	for wi := range res.windows {
		res.windows[wi].busy = spec.window.Seconds()
	}
	if spec.traced {
		res.spans = newTracer(start, 0)
	}
	for _, p := range phases {
		res.outcomes.add(p.out)
		// A frame the sender counted but nobody answered (a dead
		// connection) was attempted and failed.
		res.attempted += p.sent - int(p.recvd.Load())
		res.lateMicros = append(res.lateMicros, p.late...)
		res.sendLatSumMicros += p.sendLat
		res.answered += int(p.recvd.Load())
		res.backlog += p.backlog
		for wi := range p.windows {
			res.windows[wi].ok += p.windows[wi].ok
			res.windows[wi].lat = append(res.windows[wi].lat, p.windows[wi].lat...)
		}
		for _, err := range []error{p.sendErr, p.recvErr} {
			if err != nil {
				res.errs = append(res.errs, err)
			}
		}
		if p.spans != nil {
			res.spans.merge(p.spans)
		}
	}
	return res
}
