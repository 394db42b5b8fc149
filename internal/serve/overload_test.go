package serve

import (
	"context"
	"errors"
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"flexcore/internal/cmatrix"
	"flexcore/internal/detector"
)

// slowDetector is a stub detector whose Detect blocks until its gate is
// closed — it turns the overload test's timing into explicit
// synchronisation. started is signalled (non-blocking) at every Detect
// entry, marking the moment the shard worker has dequeued a frame.
type slowDetector struct {
	nt      int
	started chan struct{}
	gate    chan struct{}
	dec     []int
	calls   atomic.Int64 // Detect invocations — deadline tests assert expired frames never reach the detector
}

func newSlowDetector() *slowDetector {
	return &slowDetector{
		started: make(chan struct{}, 64),
		gate:    make(chan struct{}),
		dec:     make([]int, MaxAntennas),
	}
}

func (d *slowDetector) Name() string { return "slow-stub" }

func (d *slowDetector) Prepare(h *cmatrix.Matrix, sigma2 float64) error {
	d.nt = h.Cols
	return nil
}

func (d *slowDetector) Detect(y []complex128) []int {
	d.calls.Add(1)
	select {
	case d.started <- struct{}{}:
	default:
	}
	<-d.gate
	return d.dec[:d.nt]
}

func (d *slowDetector) OpCount() detector.OpCount { return detector.OpCount{} }

// tinyFrame fills q with the smallest legal frame for the stub tests.
func tinyFrame(t testing.TB, q *DetectRequest, frameID uint64) {
	t.Helper()
	q.UserID, q.FrameID, q.Sigma2 = 1, frameID, 1
	if err := q.SetGeometry(1, 1, 1, 1); err != nil {
		t.Fatal(err)
	}
	q.hdata[0], q.ydata[0] = 1, 1
}

// recvAll drains responses on its own goroutine — net.Pipe writes are
// synchronous, so the server's rejection writes would deadlock against
// a client that only sends — and delivers (FrameID, Status) pairs.
type respRec struct {
	frameID uint64
	status  Status
}

func recvAll(cl *Client) <-chan respRec {
	out := make(chan respRec, 64)
	go func() {
		defer close(out)
		var resp DetectResponse
		for {
			if err := cl.Recv(&resp); err != nil {
				return
			}
			out <- respRec{resp.FrameID, resp.Status}
		}
	}()
	return out
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t testing.TB, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestOverloadRejectsExplicitly drives one shard with a blocked
// detector past its queue capacity: every frame beyond the backlog must
// be answered with StatusOverloaded immediately (backpressure as a
// response code, never a stalled connection or a silent drop), memory
// stays bounded by the queue depth, shutdown rejects new work with
// StatusDraining, and every admitted frame still completes on drain.
func TestOverloadRejectsExplicitly(t *testing.T) {
	const depth = 4
	slow := newSlowDetector()
	srv, err := NewServer(Config{
		Shards:          1,
		QueueDepth:      depth,
		DetectorFactory: func() detector.Detector { return slow },
	})
	if err != nil {
		t.Fatal(err)
	}
	cl := srv.InProcess()
	defer cl.Close()
	responses := recvAll(cl)

	var q DetectRequest
	send := func(frameID uint64) {
		tinyFrame(t, &q, frameID)
		if err := cl.Send(&q); err != nil {
			t.Fatalf("send %d: %v", frameID, err)
		}
	}

	// Frame 1 occupies the worker (wait until it is dequeued), frames
	// 2..5 fill the admission queue.
	send(1)
	<-slow.started
	for id := uint64(2); id <= depth+1; id++ {
		send(id)
	}
	waitFor(t, "backlog admission", func() bool { return srv.Metrics().Accepted == depth+1 })

	// Frames 6..10 arrive at a full queue: five explicit overload
	// rejections, answered while the detector is still blocked.
	const extra = 5
	for id := uint64(depth + 2); id <= depth+1+extra; id++ {
		send(id)
	}
	overloaded := 0
	for overloaded < extra {
		r, ok := <-responses
		if !ok {
			t.Fatal("connection died while collecting overload rejections")
		}
		if r.status != StatusOverloaded {
			t.Fatalf("frame %d: status %v, want overloaded", r.frameID, r.status)
		}
		overloaded++
	}
	snap := srv.Metrics()
	if snap.RejectedOverload != extra {
		t.Fatalf("rejected_overload %d, want %d", snap.RejectedOverload, extra)
	}
	if got := snap.ShardStats[0].QueueDepth; got > depth {
		t.Fatalf("queue depth %d exceeds capacity %d — memory is unbounded", got, depth)
	}

	// Begin shutdown: the backlog keeps draining, new work is rejected
	// with StatusDraining.
	shutdownErr := make(chan error, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	go func() { shutdownErr <- srv.Shutdown(ctx) }()
	waitFor(t, "draining flag", srv.Draining)
	send(11)
	r, ok := <-responses
	if !ok {
		t.Fatal("connection died before the draining rejection")
	}
	if r.status != StatusDraining {
		t.Fatalf("frame 11 during drain: status %v, want draining", r.status)
	}

	// Release the detector: the admitted backlog (frames 1..5) completes
	// and responds before the server closes the connection.
	close(slow.gate)
	completed := map[uint64]bool{}
	for len(completed) < depth+1 {
		r, ok := <-responses
		if !ok {
			t.Fatalf("connection closed with only %d/%d completions delivered", len(completed), depth+1)
		}
		if r.status != StatusOK {
			t.Fatalf("frame %d: status %v, want ok", r.frameID, r.status)
		}
		completed[r.frameID] = true
	}
	for id := uint64(1); id <= depth+1; id++ {
		if !completed[id] {
			t.Fatalf("admitted frame %d never completed — work was dropped silently", id)
		}
	}
	if err := <-shutdownErr; err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	snap = srv.Metrics()
	if snap.Accepted != depth+1 || snap.Completed != depth+1 {
		t.Fatalf("accepted %d completed %d, want %d/%d", snap.Accepted, snap.Completed, depth+1, depth+1)
	}
	if snap.RejectedOverload != extra || snap.RejectedDraining != 1 {
		t.Fatalf("rejections %d overload / %d draining, want %d/1", snap.RejectedOverload, snap.RejectedDraining, extra)
	}
	// Every frame sent got exactly one response: 5 OK + 5 overloaded +
	// 1 draining — nothing vanished.
	if got := snap.Completed + snap.RejectedOverload + snap.RejectedDraining; got != 11 {
		t.Fatalf("%d responses accounted for, want 11", got)
	}
}

// TestInvalidPayloadKeepsConnection drives raw bytes over TCP: a
// well-framed but malformed payload is answered with StatusInvalid and
// the connection survives; a corrupted frame (CRC mismatch) is
// unrecoverable and closes it.
func TestInvalidPayloadKeepsConnection(t *testing.T) {
	slow := newSlowDetector()
	close(slow.gate) // instant detection
	srv, err := NewServer(Config{Shards: 1, DetectorFactory: func() detector.Detector { return slow }})
	if err != nil {
		t.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(lis) }()

	conn, err := net.Dial("tcp", lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	// A syntactically valid frame around a garbage payload: explicit
	// StatusInvalid, connection stays usable.
	if _, err := conn.Write(AppendFrame(nil, MsgDetect, []byte("not a request"))); err != nil {
		t.Fatal(err)
	}
	var buf []byte
	var resp DetectResponse
	typ, payload, buf, err := ReadFrame(conn, buf)
	if err != nil || typ != MsgResult {
		t.Fatalf("typ %d err %v", typ, err)
	}
	if err := resp.Decode(payload); err != nil {
		t.Fatal(err)
	}
	if resp.Status != StatusInvalid {
		t.Fatalf("garbage payload answered %v, want invalid", resp.Status)
	}

	// The same connection still serves a valid request.
	var q DetectRequest
	tinyFrame(t, &q, 77)
	if _, err := conn.Write(AppendFrame(nil, MsgDetect, q.AppendPayload(nil))); err != nil {
		t.Fatal(err)
	}
	typ, payload, buf, err = ReadFrame(conn, buf)
	if err != nil || typ != MsgResult {
		t.Fatalf("typ %d err %v", typ, err)
	}
	if err := resp.Decode(payload); err != nil {
		t.Fatal(err)
	}
	if resp.Status != StatusOK || resp.FrameID != 77 {
		t.Fatalf("valid frame after invalid payload: status %v frame %d", resp.Status, resp.FrameID)
	}

	// A corrupted frame kills the connection: framing cannot be
	// resynchronised.
	bad := AppendFrame(nil, MsgDetect, q.AppendPayload(nil))
	bad[len(bad)-1] ^= 0xff
	if _, err := conn.Write(bad); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err = ReadFrame(conn, buf); err == nil {
		t.Fatal("read succeeded after a corrupted frame — the server must close the connection")
	}
	waitFor(t, "bad-frame counter", func() bool { return srv.Metrics().BadFrames == 1 })

	// A client sending the wrong message type is also cut off.
	conn2, err := net.Dial("tcp", lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	if _, err := conn2.Write(AppendFrame(nil, MsgResult, nil)); err != nil {
		t.Fatal(err)
	}
	if _, err := conn2.Read(make([]byte, 1)); !errors.Is(err, io.EOF) {
		t.Fatalf("read after wrong-type frame: %v, want EOF", err)
	}

	snap := srv.Metrics()
	if snap.RejectedInvalid != 1 || snap.BadFrames != 2 {
		t.Fatalf("rejected_invalid %d bad_frames %d, want 1 and 2", snap.RejectedInvalid, snap.BadFrames)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("serve: %v", err)
	}
}

// TestShutdownExpiredContext pins the timeout path: a drain that cannot
// finish (detector permanently blocked) returns the context error
// instead of hanging.
func TestShutdownExpiredContext(t *testing.T) {
	slow := newSlowDetector()
	srv, err := NewServer(Config{Shards: 1, QueueDepth: 2, DetectorFactory: func() detector.Detector { return slow }})
	if err != nil {
		t.Fatal(err)
	}
	cl := srv.InProcess()
	defer cl.Close()
	responses := recvAll(cl)
	var q DetectRequest
	tinyFrame(t, &q, 1)
	if err := cl.Send(&q); err != nil {
		t.Fatal(err)
	}
	<-slow.started

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := srv.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("shutdown with a stuck worker returned %v, want deadline exceeded", err)
	}
	// Unstick the worker so the test leaves no goroutine behind.
	close(slow.gate)
	for range responses {
	}
}

// TestInProcessAfterShutdown: a client obtained once draining has begun
// gets a dead connection, not a hang.
func TestInProcessAfterShutdown(t *testing.T) {
	slow := newSlowDetector()
	close(slow.gate)
	srv, err := NewServer(Config{Shards: 1, DetectorFactory: func() detector.Detector { return slow }})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	cl := srv.InProcess()
	defer cl.Close()
	var q DetectRequest
	tinyFrame(t, &q, 1)
	if err := cl.Send(&q); err == nil {
		var resp DetectResponse
		if err := cl.Recv(&resp); err == nil {
			t.Fatal("request served after shutdown")
		}
	}
}

// TestShutdownOpenConnNotBadFrame: a connection left open across
// Shutdown is unblocked by the server's own force-close — the resulting
// read error must not be counted as a peer framing fault. (Regression:
// the reader raced Shutdown's force-close even after a clean client
// close, inflating BadFrames by one per connection.)
func TestShutdownOpenConnNotBadFrame(t *testing.T) {
	slow := newSlowDetector()
	close(slow.gate)
	srv, err := NewServer(Config{Shards: 1, DetectorFactory: func() detector.Detector { return slow }})
	if err != nil {
		t.Fatal(err)
	}
	cl := srv.InProcess()
	defer cl.Close()
	var q DetectRequest
	tinyFrame(t, &q, 1)
	var resp DetectResponse
	if err := cl.Do(&q, &resp); err != nil {
		t.Fatal(err)
	}
	// The client stays open: the server's conn reader is parked in
	// ReadFrame when Shutdown force-closes it.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if snap := srv.Metrics(); snap.BadFrames != 0 {
		t.Fatalf("shutdown force-close counted %d bad frames, want 0", snap.BadFrames)
	}
}

// TestShutdownNotHeldByUnreadRejection: a rejection written to a peer
// that stops reading must hold no admission lock. One client sends
// three frames into a QueueDepth-1 shard and never reads: frame 1 holds
// the worker, frame 2 the queue slot, and frame 3's StatusOverloaded
// answer blocks on the synchronous pipe. Shutdown must still begin —
// a second connection is answered StatusDraining — and must return its
// context's error at the deadline, with the worker still blocked.
// (Regression: the rejection was written under the drain lock, so
// Shutdown waited on the unread pipe forever, and Draining with it.)
func TestShutdownNotHeldByUnreadRejection(t *testing.T) {
	slow := newSlowDetector()
	srv, err := NewServer(Config{Shards: 1, QueueDepth: 1, DetectorFactory: func() detector.Detector { return slow }})
	if err != nil {
		t.Fatal(err)
	}
	stuck := srv.InProcess()
	defer stuck.Close()
	other := srv.InProcess()
	defer other.Close()
	responses := recvAll(other)

	var q DetectRequest
	for id := uint64(1); id <= 3; id++ {
		tinyFrame(t, &q, id)
		if err := stuck.Send(&q); err != nil {
			t.Fatalf("send %d: %v", id, err)
		}
		if id == 1 {
			<-slow.started
		}
	}
	waitFor(t, "the unread overload rejection", func() bool { return srv.Metrics().RejectedOverload == 1 })

	ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
	defer cancel()
	shutdownErr := make(chan error, 1)
	go func() { shutdownErr <- srv.Shutdown(ctx) }()
	giveUp := time.After(1500 * time.Millisecond)

	// Draining is polled on its own goroutine: were it to block, the
	// test fails at giveUp instead of hanging.
	draining := make(chan struct{})
	go func() {
		for !srv.Draining() {
			time.Sleep(time.Millisecond)
		}
		close(draining)
	}()
	select {
	case <-draining:
	case <-giveUp:
		t.Fatal("Draining() did not report true within 1.5s of Shutdown")
	}
	tinyFrame(t, &q, 4)
	if err := other.Send(&q); err != nil {
		t.Fatalf("send on the second connection: %v", err)
	}
	select {
	case r := <-responses:
		if r.status != StatusDraining {
			t.Fatalf("frame 4 during drain: status %v, want draining", r.status)
		}
	case <-giveUp:
		t.Fatal("no answer on the second connection within 1.5s of Shutdown")
	}
	select {
	case err := <-shutdownErr:
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("shutdown with a stuck worker returned %v, want deadline exceeded", err)
		}
	case <-giveUp:
		t.Fatal("Shutdown still blocked 1.5s after it began, past its 500ms deadline")
	}

	// Unstick the worker so the test leaves no goroutine behind.
	close(slow.gate)
	srv.workerWG.Wait()
	srv.connWG.Wait()
}

// TestServeAfterShutdown: a Serve that starts once Shutdown has run
// closes its listener and returns nil at once. (Regression: it accepted
// and closed connections forever.)
func TestServeAfterShutdown(t *testing.T) {
	slow := newSlowDetector()
	close(slow.gate)
	srv, err := NewServer(Config{Shards: 1, DetectorFactory: func() detector.Detector { return slow }})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(lis) }()
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("Serve after Shutdown: %v, want nil", err)
		}
	case <-time.After(time.Second):
		lis.Close()
		<-served
		t.Fatal("Serve after Shutdown was still accepting after 1s")
	}
	if _, err := lis.Accept(); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("Accept on the listener after Serve returned: %v, want it closed", err)
	}
}
