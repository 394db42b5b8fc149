package serve

import (
	"bufio"
	"context"
	"net"
	"testing"
	"time"

	"flexcore/internal/detector"
)

// TestStale pins the staleness predicate: a zero budget never expires,
// and the budget is compared in whole microseconds of queue age.
func TestStale(t *testing.T) {
	base := time.Unix(1000, 0)
	cases := []struct {
		name   string
		age    time.Duration
		budget uint64
		want   bool
	}{
		{"zero budget never expires", time.Hour, 0, false},
		{"within budget", 500 * time.Microsecond, 1000, false},
		{"exactly at budget", time.Millisecond, 1000, false},
		{"past budget", 1001 * time.Microsecond, 1000, true},
		{"clock went backwards", -time.Second, 1, false},
		{"tiny budget, long wait", time.Second, 1, true},
	}
	for _, c := range cases {
		if got := stale(base, c.budget, base.Add(c.age)); got != c.want {
			t.Fatalf("%s: stale(age=%v, budget=%dµs) = %v, want %v", c.name, c.age, c.budget, got, c.want)
		}
	}
}

// TestDeadlineShedsStaleQueuedFrames is the dequeue-side shedding
// contract: frames whose staleness budget elapses while they wait
// behind a blocked worker are answered StatusExpired without ever
// reaching the detector, and the in-flight ledger still drains to
// zero (expired frames count as completed).
func TestDeadlineShedsStaleQueuedFrames(t *testing.T) {
	slow := newSlowDetector()
	srv, err := NewServer(Config{
		Shards:          1,
		QueueDepth:      8,
		DetectorFactory: func() detector.Detector { return slow },
	})
	if err != nil {
		t.Fatal(err)
	}
	cl := srv.InProcess()
	defer cl.Close()
	responses := recvAll(cl)

	// Frame 1 (no deadline) parks the worker inside Detect; frames 2..4
	// carry a budget no admission plausibly blows, even under the race
	// detector on a loaded host, and age out while queued behind it.
	const budget = 50 * time.Millisecond
	var q DetectRequest
	tinyFrame(t, &q, 1)
	q.DeadlineMicros = 0
	if err := cl.Send(&q); err != nil {
		t.Fatal(err)
	}
	<-slow.started
	for id := uint64(2); id <= 4; id++ {
		tinyFrame(t, &q, id)
		q.DeadlineMicros = uint64(budget / time.Microsecond)
		if err := cl.Send(&q); err != nil {
			t.Fatalf("send %d: %v", id, err)
		}
	}
	waitFor(t, "backlog admission", func() bool { return srv.Metrics().Accepted == 4 })
	// Every queued frame arrived before this point: past one more budget,
	// all three are stale when the worker dequeues them.
	time.Sleep(budget + time.Millisecond)
	close(slow.gate)

	got := map[uint64]Status{}
	for len(got) < 4 {
		r, ok := <-responses
		if !ok {
			t.Fatalf("connection died with %d/4 responses delivered", len(got))
		}
		got[r.frameID] = r.status
	}
	if got[1] != StatusOK {
		t.Fatalf("frame 1: status %v, want ok (it was already processing when its successors aged out)", got[1])
	}
	for id := uint64(2); id <= 4; id++ {
		if got[id] != StatusExpired {
			t.Fatalf("frame %d: status %v, want expired", id, got[id])
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	snap := srv.Metrics()
	if snap.ExpiredFrames != 3 {
		t.Fatalf("expired_frames %d, want 3", snap.ExpiredFrames)
	}
	if snap.Accepted != 4 || snap.Completed != 4 || snap.InFlight != 0 {
		t.Fatalf("ledger accepted %d completed %d in-flight %d, want 4/4/0 (expired frames must drain the ledger)", snap.Accepted, snap.Completed, snap.InFlight)
	}
	// Only frame 1's single symbol ever reached the detector — expiry
	// sheds the detection work, it does not race it.
	if calls := slow.calls.Load(); calls != 1 {
		t.Fatalf("detector saw %d Detect calls, want 1 — expired frames must never be detected", calls)
	}
}

// TestDeadlineExpiryAtAdmission drives the admission-side check
// white-box: a task whose budget is already blown when admit sees it
// (backdated arrival timestamp) is answered StatusExpired before it
// ever occupies queue capacity, and is never counted accepted.
func TestDeadlineExpiryAtAdmission(t *testing.T) {
	slow := newSlowDetector()
	close(slow.gate)
	srv, err := NewServer(Config{Shards: 1, DetectorFactory: func() detector.Detector { return slow }})
	if err != nil {
		t.Fatal(err)
	}
	left, right := net.Pipe()
	defer right.Close()
	c := &serverConn{rwc: left, br: bufio.NewReaderSize(left, 256), bw: bufio.NewWriterSize(left, 256)}

	tk := srv.taskPool.Get().(*task)
	tinyFrame(t, &tk.req, 42)
	tk.req.DeadlineMicros = 1000
	tk.c = c
	tk.enq = time.Now().Add(-time.Second) // arrived one second ago with a 1ms budget

	done := make(chan struct{})
	go func() {
		srv.admit(tk)
		close(done)
	}()
	typ, payload, _, err := ReadFrame(right, nil)
	if err != nil || typ != MsgResult {
		t.Fatalf("typ %d err %v", typ, err)
	}
	var resp DetectResponse
	if err := resp.Decode(payload); err != nil {
		t.Fatal(err)
	}
	if resp.Status != StatusExpired || resp.FrameID != 42 {
		t.Fatalf("admission answered status %v frame %d, want expired frame 42", resp.Status, resp.FrameID)
	}
	<-done

	snap := srv.Metrics()
	if snap.ExpiredFrames != 1 {
		t.Fatalf("expired_frames %d, want 1", snap.ExpiredFrames)
	}
	if snap.Accepted != 0 || snap.Completed != 0 {
		t.Fatalf("accepted %d completed %d, want 0/0 — an admission-expired frame never enters the ledger", snap.Accepted, snap.Completed)
	}
	if calls := slow.calls.Load(); calls != 0 {
		t.Fatalf("detector saw %d calls, want 0", calls)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestDeadlineZeroIsDisabled: requests without a budget (the v1 wire
// default) are never shed, however long they queue.
func TestDeadlineZeroIsDisabled(t *testing.T) {
	slow := newSlowDetector()
	srv, err := NewServer(Config{Shards: 1, QueueDepth: 4, DetectorFactory: func() detector.Detector { return slow }})
	if err != nil {
		t.Fatal(err)
	}
	cl := srv.InProcess()
	defer cl.Close()
	responses := recvAll(cl)
	var q DetectRequest
	for id := uint64(1); id <= 3; id++ {
		tinyFrame(t, &q, id)
		if err := cl.Send(&q); err != nil {
			t.Fatal(err)
		}
	}
	<-slow.started
	waitFor(t, "backlog admission", func() bool { return srv.Metrics().Accepted == 3 })
	// Let the queued frames age well past any plausible accidental budget.
	time.Sleep(20 * time.Millisecond)
	close(slow.gate)
	for seen := 0; seen < 3; seen++ {
		r, ok := <-responses
		if !ok {
			t.Fatal("connection died early")
		}
		if r.status != StatusOK {
			t.Fatalf("frame %d: status %v, want ok (no deadline was set)", r.frameID, r.status)
		}
	}
	if snap := srv.Metrics(); snap.ExpiredFrames != 0 {
		t.Fatalf("expired_frames %d, want 0", snap.ExpiredFrames)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
}
