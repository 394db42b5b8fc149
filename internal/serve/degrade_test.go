package serve

import (
	"context"
	"testing"
	"time"

	"flexcore/internal/cmatrix"
	"flexcore/internal/constellation"
	"flexcore/internal/core"
	"flexcore/internal/detector"
)

// gatedDetector is a real FlexCore whose parkAt-th frame (PrepareAt
// call at k = 0, 1-based) blocks until the gate opens — it lets a test park the
// shard worker inside a real frame so the admission queue fills to a
// known depth, then observe how the pressure controller degrades the
// backlog. Embedding the concrete type keeps every capability the
// serving layer probes for (frame preparation, reuse keying, the path
// cap) in view.
type gatedDetector struct {
	*core.FlexCore
	parkAt  int
	frames  int
	started chan struct{}
	gate    chan struct{}
}

func newGatedDetector(fc *core.FlexCore, parkAt int) *gatedDetector {
	return &gatedDetector{FlexCore: fc, parkAt: parkAt, started: make(chan struct{}, 1), gate: make(chan struct{})}
}

func (d *gatedDetector) PrepareAt(hs []*cmatrix.Matrix, k int, sigma2 float64) error {
	if k > 0 {
		return d.FlexCore.PrepareAt(hs, k, sigma2)
	}
	if d.frames++; d.frames == d.parkAt {
		d.started <- struct{}{}
		<-d.gate
	}
	return d.FlexCore.PrepareAt(hs, k, sigma2)
}

// noDegradeFactory is the deprecated Config.DegradeFactory hook as the
// tests install it: the server must never call it.
func noDegradeFactory(t *testing.T) func(int) detector.Detector {
	return func(npe int) detector.Detector {
		t.Errorf("DegradeFactory(%d) called: rungs are path caps on the worker's one detector", npe)
		return nil
	}
}

// TestDegradationLadderBitIdentical is the degradation tentpole
// contract: with the worker parked inside frame 1, six more users'
// frames fill a depth-8 queue, so the dequeue-time pressure controller
// must walk them down the {8, 4} ladder deterministically — and every
// degraded frame's decisions must be bit-identical to the offline
// Prepare+Detect at exactly the N_PE the response reports. Runs on
// both FLEXCORE_BACKEND legs via envBackend.
func TestDegradationLadderBitIdentical(t *testing.T) {
	cons, err := constellation.New(e2eQAM)
	if err != nil {
		t.Fatal(err)
	}
	backend := envBackend(t)
	gated := newGatedDetector(core.New(cons, core.Options{NPE: e2eNPE, Backend: backend}), 1)
	srv, err := NewServer(Config{
		Shards:          1,
		QueueDepth:      8,
		DegradeLadder:   []int{8, 4},
		DegradeStart:    0.25,
		DetectorFactory: func() detector.Detector { return gated },
		DegradeFactory:  noDegradeFactory(t),
	})
	if err != nil {
		t.Fatal(err)
	}

	cl := srv.InProcess()
	defer cl.Close()

	type fullResp struct {
		frameID uint64
		status  Status
		npe     int
		dec     []uint16
	}
	got := make(chan fullResp, 16)
	go func() {
		defer close(got)
		var resp DetectResponse
		for {
			if err := cl.Recv(&resp); err != nil {
				return
			}
			got <- fullResp{resp.FrameID, resp.Status, resp.ServedNPE, append([]uint16(nil), resp.Decisions...)}
		}
	}()

	// Distinct users, all on the single shard, whose one worker dequeues
	// them in admission order; FrameID == UserID keys the response map.
	var q DetectRequest
	send := func(u uint64) {
		fillFrame(t, &q, u, u)
		if err := cl.Send(&q); err != nil {
			t.Fatalf("send %d: %v", u, err)
		}
	}
	send(1)
	<-gated.started
	for u := uint64(2); u <= 7; u++ {
		send(u)
	}
	waitFor(t, "backlog admission", func() bool { return srv.Metrics().Accepted == 7 })
	close(gated.gate)

	// Dequeue-time queue depths for frames 2..7 are 6,5,4,3,2,1 of 8:
	// fills 0.75, 0.625 → rung 2 (N_PE 4); 0.5, 0.375, 0.25 → rung 1
	// (N_PE 8); 0.125 < DegradeStart → rung 0 (full N_PE). Frame 1 was
	// dequeued at depth 1 → rung 0.
	wantNPE := map[uint64]int{1: 0, 2: 4, 3: 4, 4: 8, 5: 8, 6: 8, 7: 0}
	seen := map[uint64]bool{}
	for len(seen) < 7 {
		r, ok := <-got
		if !ok {
			t.Fatalf("connection died with %d/7 responses delivered", len(seen))
		}
		if r.status != StatusOK {
			t.Fatalf("frame %d: status %v, want ok", r.frameID, r.status)
		}
		want, known := wantNPE[r.frameID]
		if !known || seen[r.frameID] {
			t.Fatalf("unexpected or duplicate response for frame %d", r.frameID)
		}
		seen[r.frameID] = true
		if r.npe != want {
			t.Fatalf("frame %d: served N_PE %d, want %d (deterministic ladder walk)", r.frameID, r.npe, want)
		}
		eff := r.npe
		if eff == 0 {
			eff = e2eNPE
		}
		fillFrame(t, &q, r.frameID, r.frameID)
		ref := offlineDecisionsNPE(t, cons, &q, eff)
		if len(r.dec) != len(ref) {
			t.Fatalf("frame %d: %d decisions, want %d", r.frameID, len(r.dec), len(ref))
		}
		for i, w := range ref {
			if int(r.dec[i]) != w {
				t.Fatalf("frame %d decision %d: served %d, offline reference at N_PE=%d says %d — degraded frames must stay bit-identical to offline detection at the degraded N_PE",
					r.frameID, i, r.dec[i], eff, w)
			}
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	snap := srv.Metrics()
	if snap.DegradedFrames != 5 {
		t.Fatalf("degraded_frames %d, want 5", snap.DegradedFrames)
	}
	if snap.Completed != 7 || snap.Accepted != 7 || snap.InFlight != 0 {
		t.Fatalf("ledger accepted %d completed %d in-flight %d, want 7/7/0", snap.Accepted, snap.Completed, snap.InFlight)
	}
	if snap.ExpiredFrames != 0 {
		t.Fatalf("expired_frames %d without deadlines, want 0", snap.ExpiredFrames)
	}
}

// TestDegradedFramesShareReuseState: a rung is a cap on the worker's one
// detector, so degraded frames go through the user's cross-frame reuse
// state. One static-channel user sends full → degraded → full frames:
// the degraded frame is served from the full frame's base by prefix
// (reuse_hits grows by a frame's subcarriers, no path search), the base
// stays whole for the full frame after it, and every response is bit-identical to offline detection at
// the N_PE it reports.
func TestDegradedFramesShareReuseState(t *testing.T) {
	cons, err := constellation.New(e2eQAM)
	if err != nil {
		t.Fatal(err)
	}
	// The second frame parks the worker so the user's next two queue up.
	gated := newGatedDetector(core.New(cons, core.Options{
		NPE: e2eNPE, Backend: envBackend(t), PathReuse: true,
	}), 2)
	srv, err := NewServer(Config{
		QueueDepth:      8,
		DegradeLadder:   []int{8, 4},
		DegradeStart:    0.25,
		DetectorFactory: func() detector.Detector { return gated },
		DegradeFactory:  noDegradeFactory(t),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()
	cl := srv.InProcess()
	defer cl.Close()

	const user, other = 7, 8
	var q DetectRequest
	var resp DetectResponse
	// frame re-sends user's one static channel under a new frame ID.
	frame := func(id uint64) *DetectRequest {
		fillFrame(t, &q, user, 1)
		q.FrameID = id
		return &q
	}
	check := func(id uint64, wantNPE int, wantHits int64) {
		t.Helper()
		if resp.Status != StatusOK || resp.FrameID != id || resp.ServedNPE != wantNPE {
			t.Fatalf("frame %d: got frame %d status %v served N_PE %d, want ok at %d", id, resp.FrameID, resp.Status, resp.ServedNPE, wantNPE)
		}
		eff := wantNPE
		if eff == 0 {
			eff = e2eNPE
		}
		ref := offlineDecisionsNPE(t, cons, frame(id), eff)
		for i, w := range ref {
			if int(resp.Decisions[i]) != w {
				t.Fatalf("frame %d decision %d: served %d, offline reference at N_PE=%d says %d", id, i, resp.Decisions[i], eff, w)
			}
		}
		if hits := srv.Metrics().ShardStats[0].ReuseHits; hits != wantHits {
			t.Fatalf("after frame %d: reuse_hits %d, want %d", id, hits, wantHits)
		}
	}

	// Frame 1, alone in the queue: full N_PE, every subcarrier a fresh search.
	if err := cl.Do(frame(1), &resp); err != nil {
		t.Fatal(err)
	}
	check(1, 0, 0)

	// Park the worker inside a second user's frame and queue frame 2 and
	// a third user's frame behind it: frame 2 dequeues at depth 2 of 8 →
	// rung 1 (N_PE 8). The other users' channels are fresh: misses only.
	send := func(q *DetectRequest) {
		t.Helper()
		if err := cl.Send(q); err != nil {
			t.Fatal(err)
		}
	}
	fillFrame(t, &q, other, 1)
	send(&q)
	<-gated.started
	send(frame(2))
	fillFrame(t, &q, other+1, 1)
	send(&q)
	waitFor(t, "backlog admission", func() bool { return srv.Metrics().Accepted == 4 })
	close(gated.gate)
	var others DetectResponse
	for _, r := range []*DetectResponse{&others, &resp, &others} {
		if err := cl.Recv(r); err != nil || r.Status != StatusOK {
			t.Fatalf("backlog response: %v, status %v", err, r.Status)
		}
	}
	check(2, 8, e2eK)

	// Frame 3, alone again: full N_PE, still a hit — serving the rung by
	// prefix left the base whole.
	if err := cl.Do(frame(3), &resp); err != nil {
		t.Fatal(err)
	}
	check(3, 0, 2*e2eK)

	snap := srv.Metrics()
	if snap.DegradedFrames != 1 {
		t.Fatalf("degraded_frames %d, want 1", snap.DegradedFrames)
	}
	if misses := snap.ShardStats[0].ReuseMisses; misses != 3*e2eK {
		t.Fatalf("reuse_misses %d, want %d (frame 1 and the two other users' frames only)", misses, 3*e2eK)
	}
}

// TestDegradeConfigValidation pins the config contract: a ladder over
// a detector that cannot cap its paths, a ladder that is not strictly
// decreasing, and more than one worker per shard are construction-time
// errors, not silent misconfiguration (or silently lost parallelism).
func TestDegradeConfigValidation(t *testing.T) {
	slow := newSlowDetector()
	close(slow.gate)
	cons := constellation.MustNew(e2eQAM)
	flex := func() detector.Detector { return core.New(cons, core.Options{NPE: e2eNPE}) }
	cases := []struct {
		name string
		cfg  Config
	}{
		{"ladder with an uncappable detector", Config{DetectorFactory: func() detector.Detector { return slow }, DegradeLadder: []int{8, 4}}},
		{"non-decreasing ladder", Config{DetectorFactory: flex, DegradeLadder: []int{4, 8}}},
		{"non-positive rung", Config{DetectorFactory: flex, DegradeLadder: []int{8, 0}}},
		{"WorkersPerShard > 1", Config{DetectorFactory: flex, WorkersPerShard: 2}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := NewServer(c.cfg); err == nil {
				t.Fatal("NewServer accepted an invalid degradation config")
			}
		})
	}
}

// TestRungMapping pins the pressure controller's depth→rung curve, and
// that a ladder costs no detectors: one per shard, whatever its length.
func TestRungMapping(t *testing.T) {
	cons := constellation.MustNew(e2eQAM)
	built := 0
	srv, err := NewServer(Config{
		Shards:        6,
		QueueDepth:    8,
		DegradeStart:  0.25,
		DegradeLadder: []int{8, 4},
		DetectorFactory: func() detector.Detector {
			built++
			return core.New(cons, core.Options{NPE: e2eNPE})
		},
		DegradeFactory: noDegradeFactory(t),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()
	if built != 6 {
		t.Fatalf("a 6-shard server with a two-rung ladder built %d detectors, want 6", built)
	}
	want := map[int]int{0: 0, 1: 0, 2: 1, 3: 1, 4: 1, 5: 2, 6: 2, 7: 2, 8: 2, 9: 2}
	for depth, rung := range want {
		if got := srv.rung(depth); got != rung {
			t.Fatalf("rung(depth=%d) = %d, want %d", depth, got, rung)
		}
	}
}
