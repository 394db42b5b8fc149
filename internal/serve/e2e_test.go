package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"sync"
	"testing"
	"time"

	"flexcore/internal/channel"
	"flexcore/internal/constellation"
	"flexcore/internal/core"
	"flexcore/internal/detector"
)

// envBackend mirrors the conformance suite: the FLEXCORE_BACKEND
// environment variable selects the kernel backend of the CI matrix leg
// (empty = complex128); an unknown value fails loudly.
func envBackend(t testing.TB) core.Backend {
	t.Helper()
	b, ok := core.ParseBackend(os.Getenv("FLEXCORE_BACKEND"))
	if !ok {
		t.Fatalf("FLEXCORE_BACKEND=%q: unknown backend", os.Getenv("FLEXCORE_BACKEND"))
	}
	return b
}

// e2e geometry: a small but non-trivial uplink frame.
const (
	e2eNr, e2eNt   = 5, 4
	e2eK, e2eS     = 6, 3
	e2eQAM, e2eNPE = 16, 16
	e2eSigma2      = 0.1
)

// fillFrame fills q with the deterministic frame (userID, frameID) of a
// seeded ensemble: Rayleigh channels per subcarrier, random transmit
// vectors through them plus AWGN. Both the client and the offline
// reference regenerate identical bits from the same (userID, frameID).
func fillFrame(t testing.TB, q *DetectRequest, userID, frameID uint64) {
	t.Helper()
	fillFrameGeometry(t, q, userID, frameID, e2eNr, e2eNt)
}

// fillFrameGeometry is fillFrame for a user with an nr×nt antenna
// geometry of its own.
func fillFrameGeometry(t testing.TB, q *DetectRequest, userID, frameID uint64, nr, nt int) {
	t.Helper()
	q.UserID, q.FrameID, q.Sigma2 = userID, frameID, e2eSigma2
	if err := q.SetGeometry(nr, nt, e2eK, e2eS); err != nil {
		t.Fatal(err)
	}
	rng := channel.NewStreamRNG(0xf1ec, userID<<20|frameID)
	x := make([]complex128, nt)
	for k := 0; k < e2eK; k++ {
		h := channel.Rayleigh(rng, nr, nt)
		copy(q.H()[k].Data, h.Data)
		for _, y := range q.Burst(k) {
			for i := range x {
				x[i] = channel.CN(rng, 1)
			}
			copy(y, h.MulVec(x))
			channel.AddAWGN(rng, y, e2eSigma2)
		}
	}
}

// offlineCache memoizes offlineDecisionsNPE per (request payload, NPE):
// the e2e matrix re-checks the same deterministic (userID, frameID)
// frames across many server configurations and degradation rungs, and
// the reference decisions are a pure function of the request bytes and
// the N_PE they are detected at (the backend is fixed per process).
var offlineCache sync.Map // string(payload)+"@npe" -> []int

// offlineDecisions runs the reference path at the full e2e N_PE.
func offlineDecisions(t testing.TB, cons *constellation.Constellation, q *DetectRequest) []int {
	return offlineDecisionsNPE(t, cons, q, e2eNPE)
}

// offlineDecisionsNPE runs the reference path — a fresh detector at the
// given N_PE, scalar Prepare+Detect looped over every
// subcarrier and OFDM symbol — and returns the flat (k, s, stream)-major
// decisions. The degradation suite compares served frames against it at
// the rung N_PE the server reported.
func offlineDecisionsNPE(t testing.TB, cons *constellation.Constellation, q *DetectRequest, npe int) []int {
	t.Helper()
	key := fmt.Sprintf("%s@%d", q.AppendPayload(nil), npe)
	if got, ok := offlineCache.Load(key); ok {
		return got.([]int)
	}
	det := core.New(cons, core.Options{NPE: npe, Backend: envBackend(t)})
	out := make([]int, 0, q.Subcarriers*q.Symbols*q.Nt)
	for k := 0; k < q.Subcarriers; k++ {
		if err := det.Prepare(q.H()[k], q.Sigma2); err != nil {
			t.Fatal(err)
		}
		for _, y := range q.Burst(k) {
			out = append(out, det.Detect(y)...)
		}
	}
	offlineCache.Store(key, out)
	return out
}

// checkResponse compares a served response against the offline
// reference for the same frame.
func checkResponse(t testing.TB, cons *constellation.Constellation, q *DetectRequest, resp *DetectResponse) {
	t.Helper()
	if resp.Status != StatusOK {
		t.Fatalf("user %d frame %d: status %v, want ok", q.UserID, q.FrameID, resp.Status)
	}
	if resp.FrameID != q.FrameID {
		t.Fatalf("user %d: response frame %d, want %d", q.UserID, resp.FrameID, q.FrameID)
	}
	if resp.Nt != q.Nt || resp.Subcarriers != q.Subcarriers || resp.Symbols != q.Symbols {
		t.Fatalf("user %d frame %d: geometry echo mismatch", q.UserID, q.FrameID)
	}
	if resp.ServedNPE != 0 {
		t.Fatalf("user %d frame %d: served N_PE %d on a server without a degrade ladder", q.UserID, q.FrameID, resp.ServedNPE)
	}
	want := offlineDecisions(t, cons, q)
	if len(resp.Decisions) != len(want) {
		t.Fatalf("user %d frame %d: %d decisions, want %d", q.UserID, q.FrameID, len(resp.Decisions), len(want))
	}
	for i, w := range want {
		if int(resp.Decisions[i]) != w {
			t.Fatalf("user %d frame %d: decision %d = %d, offline reference %d — served decisions must be bit-identical to the offline path",
				q.UserID, q.FrameID, i, resp.Decisions[i], w)
		}
	}
}

// TestE2EServedEqualsOffline is the tentpole contract: N concurrent
// clients stream frames through the full ingest→shard→detect→respond
// pipeline, across shard counts, and every
// served decision must be bit-identical to looping the offline
// Prepare+Detect over the same frame. The kernel backend leg comes from
// FLEXCORE_BACKEND, so the CI matrix covers both.
func TestE2EServedEqualsOffline(t *testing.T) {
	cons, err := constellation.New(e2eQAM)
	if err != nil {
		t.Fatal(err)
	}
	backend := envBackend(t)
	const clients, framesPerClient = 6, 4
	for _, shards := range []int{1, 2, 8} {
		// detWorkers sets the deprecated core.Options.Workers, which a
		// detector ignores: the served decisions must not depend on it.
		// The axis (and its place in the subtest names) goes with the
		// field.
		for _, workers := range []int{3, 1} {
			t.Run(fmt.Sprintf("shards=%d,detWorkers=%d", shards, workers), func(t *testing.T) {
				srv, err := NewServer(Config{
					Shards:     shards,
					QueueDepth: 2 * clients * framesPerClient, // overload-free: this test pins correctness, not backpressure
					DetectorFactory: func() detector.Detector {
						return core.New(cons, core.Options{NPE: e2eNPE, Workers: workers, Backend: backend})
					},
				})
				if err != nil {
					t.Fatal(err)
				}
				var wg sync.WaitGroup
				for c := 0; c < clients; c++ {
					wg.Add(1)
					go func(userID uint64) {
						defer wg.Done()
						cl := srv.InProcess()
						defer cl.Close()
						var q DetectRequest
						var resp DetectResponse
						for f := 0; f < framesPerClient; f++ {
							fillFrame(t, &q, userID, uint64(f+1))
							if err := cl.Do(&q, &resp); err != nil {
								t.Errorf("user %d frame %d: %v", userID, f+1, err)
								return
							}
							checkResponse(t, cons, &q, &resp)
						}
					}(uint64(1 + c*31)) // spread users across the shard space
				}
				wg.Wait()
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				defer cancel()
				if err := srv.Shutdown(ctx); err != nil {
					t.Fatalf("shutdown: %v", err)
				}
				snap := srv.Metrics()
				if want := int64(clients * framesPerClient); snap.Accepted != want || snap.Completed != want {
					t.Fatalf("accepted %d / completed %d, want %d / %d", snap.Accepted, snap.Completed, want, want)
				}
				if snap.RejectedOverload != 0 || snap.RejectedDraining != 0 || snap.RejectedInvalid != 0 || snap.BadFrames != 0 {
					t.Fatalf("unexpected rejections: %+v", snap)
				}
				if snap.InFlight != 0 {
					t.Fatalf("in-flight %d after drain", snap.InFlight)
				}
				if snap.OpCount == (detector.OpCount{}) {
					t.Fatal("metrics did not aggregate detector op counts")
				}
				if snap.AvgActivePEs != float64(e2eNPE) {
					t.Fatalf("AvgActivePEs %g, want %d (plain FlexCore activates all PEs)", snap.AvgActivePEs, e2eNPE)
				}
			})
		}
	}
}

// TestE2EOverTCP runs one client over a real TCP socket — same codec
// and admission path as the in-process pipe, plus the listener.
func TestE2EOverTCP(t *testing.T) {
	cons, err := constellation.New(e2eQAM)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(Config{
		Shards: 2,
		DetectorFactory: func() detector.Detector {
			return core.New(cons, core.Options{NPE: e2eNPE, Backend: envBackend(t)})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(lis) }()

	cl, err := Dial(lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	var q DetectRequest
	var resp DetectResponse
	for f := 0; f < 3; f++ {
		fillFrame(t, &q, 9001, uint64(f+1))
		if err := cl.Do(&q, &resp); err != nil {
			t.Fatalf("frame %d: %v", f+1, err)
		}
		checkResponse(t, cons, &q, &resp)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("serve: %v", err)
	}
}

// TestE2EPipelinedClient exercises the Send/Recv split: one client
// pipelines all of its frames before reading any response, matching
// responses to requests by FrameID (per-shard completion order need
// not be send order).
func TestE2EPipelinedClient(t *testing.T) {
	cons, err := constellation.New(e2eQAM)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(Config{
		Shards:     4,
		QueueDepth: 64,
		DetectorFactory: func() detector.Detector {
			return core.New(cons, core.Options{NPE: e2eNPE, Backend: envBackend(t)})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	cl := srv.InProcess()
	defer cl.Close()

	const frames = 8
	// One user per frame, so frames fan out across shards and responses
	// can legitimately arrive out of send order.
	done := make(chan error, 1)
	got := make(map[uint64][]uint16, frames)
	go func() {
		var resp DetectResponse
		for i := 0; i < frames; i++ {
			if err := cl.Recv(&resp); err != nil {
				done <- err
				return
			}
			if resp.Status != StatusOK {
				done <- fmt.Errorf("frame %d: status %v", resp.FrameID, resp.Status)
				return
			}
			got[resp.FrameID] = append([]uint16(nil), resp.Decisions...)
		}
		done <- nil
	}()
	var q DetectRequest
	for f := 0; f < frames; f++ {
		fillFrame(t, &q, uint64(100+f), uint64(f+1))
		if err := cl.Send(&q); err != nil {
			t.Fatalf("send %d: %v", f, err)
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	for f := 0; f < frames; f++ {
		var q DetectRequest
		fillFrame(t, &q, uint64(100+f), uint64(f+1))
		want := offlineDecisions(t, cons, &q)
		dec, ok := got[uint64(f+1)]
		if !ok {
			t.Fatalf("no response for frame %d", f+1)
		}
		for i, w := range want {
			if int(dec[i]) != w {
				t.Fatalf("frame %d decision %d: served %d, offline %d", f+1, i, dec[i], w)
			}
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestMetricsSnapshotShape sanity-checks the snapshot fields the
// daemon's /metrics endpoint serves.
func TestMetricsSnapshotShape(t *testing.T) {
	cons, err := constellation.New(e2eQAM)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(Config{
		Shards: 3,
		DetectorFactory: func() detector.Detector {
			return core.New(cons, core.Options{NPE: e2eNPE, Backend: envBackend(t)})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	cl := srv.InProcess()
	defer cl.Close()
	var q DetectRequest
	var resp DetectResponse
	fillFrame(t, &q, 5, 1)
	if err := cl.Do(&q, &resp); err != nil {
		t.Fatal(err)
	}
	snap := srv.Metrics()
	if snap.Shards != 3 || len(snap.ShardStats) != 3 {
		t.Fatalf("shards %d, shard_stats has %d entries, want 3 and 3", snap.Shards, len(snap.ShardStats))
	}
	var tracked, hwm int
	var hits, misses int64
	for _, st := range snap.ShardStats {
		if st.QueueDepth != 0 {
			t.Fatalf("queue depth %d after completion, want 0", st.QueueDepth)
		}
		tracked += st.TrackedUsers
		hwm += st.QueueHighWatermark
		hits += st.ReuseHits
		misses += st.ReuseMisses
	}
	if tracked != 1 {
		t.Fatalf("tracked users %d across shards, want 1", tracked)
	}
	if hwm != 1 {
		t.Fatalf("queue high-watermark sum %d, want 1 (one frame was admitted)", hwm)
	}
	if hits != 0 || misses != 0 {
		t.Fatalf("reuse counters %d/%d with PathReuse off, want 0/0", hits, misses)
	}
	if snap.Completed != 1 || snap.Accepted != 1 {
		t.Fatalf("accepted %d completed %d, want 1/1", snap.Accepted, snap.Completed)
	}
	var latTotal int64
	for _, b := range snap.Latency {
		latTotal += b.Count
	}
	if latTotal != 1 {
		t.Fatalf("latency histogram holds %d observations, want 1", latTotal)
	}
	if snap.Preprocess.Expanded == 0 {
		t.Fatal("preprocess stats not aggregated")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestServedActivePEsAreSums: every detector statistic the snapshot
// publishes is a counter summed over the shards. An a-FlexCore server
// (θ = 0.9, two shards, PathReuse, every frame sent twice so the second
// hits) reports AvgActivePEs as the offline mean of the selected path
// counts — below N_PE — and Preprocess.ActivePaths as the sum of its
// shard detectors', and every field of the preprocess JSON moves.
func TestServedActivePEsAreSums(t *testing.T) {
	cons, err := constellation.New(e2eQAM)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.Options{NPE: e2eNPE, Threshold: 0.9, PathReuse: true, Backend: envBackend(t)}
	var mu sync.Mutex
	var dets []*core.FlexCore
	srv, err := NewServer(Config{
		Shards: 2,
		DetectorFactory: func() detector.Detector {
			mu.Lock()
			defer mu.Unlock()
			dets = append(dets, core.New(cons, opts))
			return dets[len(dets)-1]
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	cl := srv.InProcess()
	defer cl.Close()
	var q DetectRequest
	var resp DetectResponse
	var paths, prepares int64 // the offline count: a fresh a-FlexCore per subcarrier sent
	for _, user := range []uint64{1, 2, 3, 4} {
		for f := uint64(1); f <= 2; f++ {
			fillFrame(t, &q, user, f)
			for range 2 {
				if err := cl.Do(&q, &resp); err != nil {
					t.Fatal(err)
				}
				if resp.Status != StatusOK {
					t.Fatalf("user %d frame %d: status %v, want ok", user, f, resp.Status)
				}
				for _, h := range q.H() {
					ref := core.New(cons, core.Options{NPE: e2eNPE, Threshold: 0.9})
					if err := ref.Prepare(h, q.Sigma2); err != nil {
						t.Fatal(err)
					}
					paths += int64(ref.ActivePaths())
					prepares++
				}
			}
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	snap := srv.Metrics()
	if want := float64(paths) / float64(prepares); snap.AvgActivePEs != want || want >= e2eNPE {
		t.Fatalf("AvgActivePEs %g, offline mean %g over %d subcarriers (want it below N_PE %d)", snap.AvgActivePEs, want, prepares, e2eNPE)
	}
	t.Logf("AvgActivePEs %.3f over %d subcarriers, preprocess %+v", snap.AvgActivePEs, prepares, snap.Preprocess)
	var shards core.PreprocessStats
	for _, d := range dets {
		shards.Add(d.PreprocessStats())
	}
	if len(dets) != 2 || snap.Preprocess != shards || snap.Preprocess.ActivePaths != paths {
		t.Fatalf("snapshot preprocess %+v, the %d shard detectors sum to %+v, offline ActivePaths %d", snap.Preprocess, len(dets), shards, paths)
	}
	raw, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Preprocess map[string]float64 `json:"preprocess"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	for name, v := range doc.Preprocess {
		if v == 0 {
			t.Errorf("preprocess.%s reads 0 in a run that exercises it: %s", name, raw)
		}
	}
}
