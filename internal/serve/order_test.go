package serve

import (
	"context"
	"sync"
	"testing"
	"time"

	"flexcore/internal/channel"
	"flexcore/internal/constellation"
	"flexcore/internal/core"
	"flexcore/internal/detector"
)

// fillFrameCoherent fills q with a deterministic frame whose channel
// depends only on (userID, epoch) while the transmitted data varies per
// frame: epoch held constant models a static user (every frame re-sends
// the identical per-subcarrier H — the cross-frame reuse steady state),
// epoch = frameID models a channel that changes every frame.
func fillFrameCoherent(t testing.TB, q *DetectRequest, userID, frameID, epoch uint64) {
	t.Helper()
	q.UserID, q.FrameID, q.Sigma2 = userID, frameID, e2eSigma2
	if err := q.SetGeometry(e2eNr, e2eNt, e2eK, e2eS); err != nil {
		t.Fatal(err)
	}
	chRNG := channel.NewStreamRNG(0xc0de, userID<<20|epoch)
	dataRNG := channel.NewStreamRNG(0xda7a, userID<<20|frameID)
	x := make([]complex128, e2eNt)
	for k := 0; k < e2eK; k++ {
		h := channel.Rayleigh(chRNG, e2eNr, e2eNt)
		copy(q.H()[k].Data, h.Data)
		for _, y := range q.Burst(k) {
			for i := range x {
				x[i] = channel.CN(dataRNG, 1)
			}
			copy(y, h.MulVec(x))
			channel.AddAWGN(dataRNG, y, e2eSigma2)
		}
	}
}

// TestPerUserFIFOAndReuseKeying is the ordering property test of the
// serve path: many users pipeline bursts of frames into eight
// single-worker shards with per-user cross-frame reuse enabled,
// and for every user the responses must come back
// in send order — per-user FIFO from one user → one shard → one queue →
// one worker — with decisions bit-identical to the offline
// Prepare+Detect loop, reuse hits and all. Half the users are static
// (identical H every frame: every subcarrier after the first frame is a
// cross-frame cache hit), half vary their channel every frame (no
// hits: their level keys differ); the final snapshot pins both counters exactly,
// proving the per-user state was neither shared across users nor lost
// between a user's frames.
func TestPerUserFIFOAndReuseKeying(t *testing.T) {
	cons, err := constellation.New(e2eQAM)
	if err != nil {
		t.Fatal(err)
	}
	backend := envBackend(t)
	const users, frames = 10, 6
	srv, err := NewServer(Config{
		Shards:     8,
		QueueDepth: users * frames, // overload-free: this test pins ordering, not backpressure
		DetectorFactory: func() detector.Detector {
			return core.New(cons, core.Options{
				NPE: e2eNPE, Backend: backend,
				PathReuse: true,
			})
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for u := 0; u < users; u++ {
		wg.Add(1)
		go func(userID uint64, static bool) {
			defer wg.Done()
			cl := srv.InProcess()
			defer cl.Close()
			// Queue the whole burst, flush once (the coalescing client
			// path), then read the responses back.
			var q DetectRequest
			want := make([][]int, frames)
			for f := uint64(1); f <= frames; f++ {
				epoch := uint64(0)
				if !static {
					epoch = f
				}
				fillFrameCoherent(t, &q, userID, f, epoch)
				want[f-1] = offlineDecisions(t, cons, &q)
				if err := cl.Queue(&q); err != nil {
					t.Errorf("user %d queue %d: %v", userID, f, err)
					return
				}
			}
			if err := cl.Flush(); err != nil {
				t.Errorf("user %d flush: %v", userID, err)
				return
			}
			var resp DetectResponse
			for f := uint64(1); f <= frames; f++ {
				if err := cl.Recv(&resp); err != nil {
					t.Errorf("user %d recv %d: %v", userID, f, err)
					return
				}
				if resp.Status != StatusOK {
					t.Errorf("user %d frame %d: status %v", userID, resp.FrameID, resp.Status)
					return
				}
				// The FIFO property: the f-th response on this user's
				// connection is the f-th frame it sent.
				if resp.FrameID != f {
					t.Errorf("user %d: response %d carries frame %d — per-user FIFO order violated", userID, f, resp.FrameID)
					return
				}
				w := want[f-1]
				if len(resp.Decisions) != len(w) {
					t.Errorf("user %d frame %d: %d decisions, want %d", userID, f, len(resp.Decisions), len(w))
					return
				}
				for i, wv := range w {
					if int(resp.Decisions[i]) != wv {
						t.Errorf("user %d frame %d decision %d: served %d, offline %d — reuse must stay output-neutral",
							userID, f, i, resp.Decisions[i], wv)
						return
					}
				}
			}
		}(uint64(7+u*13), u%2 == 0)
	}
	wg.Wait()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	snap := srv.Metrics()
	if want := int64(users * frames); snap.Accepted != want || snap.Completed != want {
		t.Fatalf("accepted %d / completed %d, want %d", snap.Accepted, snap.Completed, want)
	}
	if snap.RejectedOverload != 0 || snap.RejectedInvalid != 0 || snap.WriteErrors != 0 {
		t.Fatalf("unexpected errors: %+v", snap)
	}
	var hits, misses int64
	tracked := 0
	for _, st := range snap.ShardStats {
		hits += st.ReuseHits
		misses += st.ReuseMisses
		tracked += st.TrackedUsers
	}
	// Static users hit on every subcarrier of every frame after their
	// first; varying users never hit. Exact counts prove
	// per-user keying: shared or leaked state would change them.
	const staticUsers = users / 2
	if wantHits := int64(staticUsers * (frames - 1) * e2eK); hits != wantHits {
		t.Fatalf("reuse hits %d, want exactly %d (static users × repeat frames × subcarriers)", hits, wantHits)
	}
	if wantMiss := int64(users*frames*e2eK) - hits; misses != wantMiss {
		t.Fatalf("reuse misses %d, want %d", misses, wantMiss)
	}
	if tracked != users {
		t.Fatalf("tracked users %d, want %d", tracked, users)
	}
}
