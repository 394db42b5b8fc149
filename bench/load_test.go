package main

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"flexcore/internal/serve"
)

func TestMatcherPairsByUserAndFrame(t *testing.T) {
	m := newMatcher(3)
	for _, f := range []sentFrame{
		{user: 0, seq: 5, slot: 50}, {user: 1, seq: 9, slot: 19}, {user: 0, seq: 6, slot: 60}, {user: 2, seq: 0, slot: 2},
	} {
		m.add(f)
	}
	// Users answer in any order; each user's own frames in send order.
	for _, want := range []sentFrame{{user: 1, seq: 9, slot: 19}, {user: 0, seq: 5, slot: 50}, {user: 2, seq: 0, slot: 2}, {user: 0, seq: 6, slot: 60}} {
		got, err := m.match(frameID(want.user, want.seq), true)
		if err != nil || got != want {
			t.Fatalf("match(user %d, frame %d) = %+v, %v", want.user, want.seq, got, err)
		}
	}
	if m.outstanding != 0 {
		t.Fatalf("outstanding = %d after every frame was answered", m.outstanding)
	}

	// Two users with the same sequence number are different frames.
	m.add(sentFrame{user: 0, seq: 7, slot: 1})
	m.add(sentFrame{user: 1, seq: 7, slot: 2})
	if got, err := m.match(frameID(1, 7), true); err != nil || got.slot != 2 {
		t.Fatalf("same seq, user 1: %+v, %v", got, err)
	}

	// Violations are errors, never a silent mis-attribution.
	m.add(sentFrame{user: 0, seq: 8, slot: 3})
	if _, err := m.match(frameID(0, 8), true); err == nil {
		t.Error("a completion overtaking its user's older frame must be an error")
	}
	if _, err := m.match(frameID(2, 1), true); err == nil {
		t.Error("a response with nothing outstanding for its user must be an error")
	}
	if _, err := m.match(frameID(9, 0), true); err == nil {
		t.Error("a response for an unknown user must be an error")
	}
	// A refusal is answered on the spot and may overtake queued frames.
	if got, err := m.match(frameID(0, 8), false); err != nil || got.slot != 3 {
		t.Errorf("refusal overtaking an older frame: %+v, %v", got, err)
	}
	if got, err := m.match(frameID(0, 7), true); err != nil || got.slot != 1 || m.outstanding != 0 {
		t.Errorf("the overtaken frame afterwards: %+v, %v, outstanding %d", got, err, m.outstanding)
	}
}

// tinyWorkload is a ring small enough to build in a millisecond.
var tinyWorkload = workload{
	name: "tiny", serve: true, nr: 2, nt: 2, qam: 4, npe: 4, k: 1, s: 1, sigma2: 0.01,
	users: 2, frames: 2, reuse: true,
}

// stubTarget answers every request correctly after a scripted delay,
// and can stall one Send — a generator-side hiccup or a full socket
// buffer — to show what the pacer does with the frames that fall due
// meanwhile.
type stubTarget struct {
	ring    *ring
	latency time.Duration
	// stallAt is the index of the Send that blocks for stall; -1: none.
	stallAt int
	stall   time.Duration

	sends       int
	wire        chan stubFrame
	outstanding atomic.Int64
	maxOut      atomic.Int64
}

type stubFrame struct {
	id    uint64
	ready time.Time
}

func (s *stubTarget) Send(q *serve.DetectRequest) error {
	if s.sends == s.stallAt {
		time.Sleep(s.stall)
	}
	s.sends++
	if n := s.outstanding.Add(1); n > s.maxOut.Load() {
		s.maxOut.Store(n)
	}
	s.wire <- stubFrame{id: q.FrameID, ready: time.Now().Add(s.latency)}
	return nil
}

func (s *stubTarget) Recv(resp *serve.DetectResponse) error {
	f, ok := <-s.wire
	if !ok {
		return errors.New("stub closed")
	}
	time.Sleep(time.Until(f.ready))
	s.outstanding.Add(-1)
	slot := s.ring.slot(int(f.id>>48), f.id&(1<<48-1))
	*resp = serve.DetectResponse{FrameID: f.id, Status: serve.StatusOK, Decisions: s.ring.refs[s.ring.w.npe][slot]}
	return nil
}

func newStub(t *testing.T, latency time.Duration) (*stubTarget, []*connLoad) {
	t.Helper()
	w := tinyWorkload
	r, err := newRing(&w, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.reference(w.npe); err != nil {
		t.Fatal(err)
	}
	stub := &stubTarget{ring: r, latency: latency, stallAt: -1, wire: make(chan stubFrame, maxOutstanding)}
	conn := &connLoad{tgt: stub, ring: r, users: []int{0, 1}, seq: make([]uint64, 2)}
	return stub, []*connLoad{conn}
}

// TestPacerOpenLoop drives the open-loop pacer against scripted
// latencies and one 60 ms send stall. Every assertion is one-sided in
// the direction a slow or busy host pushes, so load cannot fail it.
func TestPacerOpenLoop(t *testing.T) {
	const (
		rate    = 500 // one connection: a frame every 2 ms
		length  = 400 * time.Millisecond
		latency = time.Millisecond
		stall   = 60 * time.Millisecond
	)
	stub, conns := newStub(t, latency)
	stub.stallAt, stub.stall = 50, stall
	res := runPhase(conns, phaseSpec{name: "paced", windows: 4, window: length / 4, rate: rate}, stub.ring.verify)
	if len(res.errs) > 0 {
		t.Fatal(res.errs[0])
	}

	// The offered count is the schedule's, stall or no stall: an open
	// loop that skipped the frames it was late for would offer fewer.
	if want := int(rate * length.Seconds()); res.attempted != want || res.ok != want {
		t.Fatalf("attempted %d ok %d, want %d of each", res.attempted, res.ok, want)
	}
	if len(res.lateMicros) != res.attempted {
		t.Fatalf("%d lateness samples for %d frames", len(res.lateMicros), res.attempted)
	}
	// Lateness: the frame due right after the stalled send went out
	// about a stall late.
	if max := percentile(sortedCopy(res.lateMicros), 100); max < 0.8*float64(stall.Microseconds()) {
		t.Errorf("max lateness %v us, want about the %v stall", max, stall)
	}

	var lat []float64
	sentInWindows := 0
	for _, w := range res.windows {
		lat = append(lat, w.lat...)
		sentInWindows += len(w.lat)
	}
	if sentInWindows != res.attempted {
		t.Errorf("windows hold %d frames, want every one of the %d due inside the phase", sentInWindows, res.attempted)
	}
	lat = sortedCopy(lat)
	// Latency runs from the due time and includes the scripted delay.
	if lat[0] < float64(latency.Microseconds()) {
		t.Errorf("fastest frame %v us, below the scripted %v", lat[0], latency)
	}
	// No coordinated omission: the ~30 frames that fell due during the
	// stall each carry the part of it they waited out. Timed from the
	// actual send, only the one stalled frame would be slow.
	slow := 0
	for _, l := range lat {
		if l >= float64(stall.Microseconds())/3 {
			slow++
		}
	}
	if slow < 10 {
		t.Errorf("%d frames slower than a third of the stall, want the frames due during it (>= 10)", slow)
	}
	// The mean from the actual send excludes the wait before sending,
	// so it sits below the mean from the due time.
	var sumDue float64
	for _, l := range lat {
		sumDue += l
	}
	if fromSend, fromDue := res.sendLatSumMicros/float64(res.answered), sumDue/float64(len(lat)); fromSend > fromDue {
		t.Errorf("mean latency from send %v us above mean from due %v us", fromSend, fromDue)
	}
}

// TestPacerClosedLoop checks the closed-loop window: never more than
// serveInflight frames on the wire, every frame attributed once.
func TestPacerClosedLoop(t *testing.T) {
	stub, conns := newStub(t, 200*time.Microsecond)
	res := runPhase(conns, phaseSpec{name: "sat", windows: 2, window: 50 * time.Millisecond}, stub.ring.verify)
	if len(res.errs) > 0 {
		t.Fatal(res.errs[0])
	}
	if res.attempted == 0 || res.ok != res.attempted || res.failed() != 0 {
		t.Fatalf("attempted %d ok %d", res.attempted, res.ok)
	}
	if got := stub.maxOut.Load(); got > serveInflight {
		t.Errorf("%d frames in flight, window is %d", got, serveInflight)
	}
	inWindows := 0
	for _, w := range res.windows {
		inWindows += w.ok
		if w.ok != len(w.lat) {
			t.Errorf("window has %d ok frames but %d latencies", w.ok, len(w.lat))
		}
	}
	// Frames completing after the phase end are verified but belong to
	// no window; at most a window's worth can.
	if d := res.ok - inWindows; d < 0 || d > serveInflight {
		t.Errorf("%d ok frames, %d in windows", res.ok, inWindows)
	}
	if res.backlog > serveInflight {
		t.Errorf("backlog %d beyond the window", res.backlog)
	}
}

// TestVerifyClassifies checks every response lands in one outcome.
func TestVerifyClassifies(t *testing.T) {
	stub, _ := newStub(t, 0)
	r := stub.ring
	good := r.refs[r.w.npe][0]
	bad := append([]uint16(nil), good...)
	bad[0] ^= 1
	cases := []struct {
		resp serve.DetectResponse
		want outcomes
	}{
		{serve.DetectResponse{Status: serve.StatusOK, Decisions: good}, outcomes{attempted: 1, ok: 1}},
		{serve.DetectResponse{Status: serve.StatusOK, Decisions: bad}, outcomes{attempted: 1, wrong: 1}},
		{serve.DetectResponse{Status: serve.StatusOK, Decisions: good[:1]}, outcomes{attempted: 1, wrong: 1}},
		// A degraded answer needs a reference at its N_PE to count.
		{serve.DetectResponse{Status: serve.StatusOK, ServedNPE: 2, Decisions: good}, outcomes{attempted: 1, wrong: 1}},
		{serve.DetectResponse{Status: serve.StatusExpired}, outcomes{attempted: 1, expired: 1}},
		{serve.DetectResponse{Status: serve.StatusOverloaded}, outcomes{attempted: 1, rejected: 1}},
		{serve.DetectResponse{Status: serve.StatusInvalid}, outcomes{attempted: 1, rejected: 1}},
	}
	for _, c := range cases {
		if got := r.verify(0, &c.resp); got != c.want {
			t.Errorf("verify(%v, npe %d) = %+v, want %+v", c.resp.Status, c.resp.ServedNPE, got, c.want)
		}
		if got := r.verify(0, &c.resp); got.failed() != 1-c.want.ok {
			t.Errorf("failed() = %d for %+v", got.failed(), got)
		}
	}
	if _, err := r.reference(2); err != nil {
		t.Fatal(err)
	}
	resp := serve.DetectResponse{Status: serve.StatusOK, ServedNPE: 2, Decisions: r.refs[2][0]}
	if got := r.verify(0, &resp); got != (outcomes{attempted: 1, ok: 1, degraded: 1}) {
		t.Errorf("degraded answer matching its rung's reference = %+v", got)
	}
}
