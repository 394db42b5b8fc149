package serve

import (
	"context"
	"slices"
	"testing"
	"time"

	"flexcore/internal/constellation"
	"flexcore/internal/core"
	"flexcore/internal/detector"
)

// TestUserStateEviction pins Config.UserStateCap's eviction rule on one
// shard capped at two users: a user with frames in flight is never
// evicted — its reuse state is in use by the worker or waits for a
// queued frame — so the table transiently exceeds the cap; once the
// shard has drained, each new user evicts the oldest idle user, in
// insertion order; and an evicted user comes back with empty reuse
// bases.
func TestUserStateEviction(t *testing.T) {
	t.Run("in-flight users are kept, idle users go oldest first", func(t *testing.T) {
		slow := newSlowDetector()
		srv, err := NewServer(Config{
			Shards:          1,
			QueueDepth:      8,
			UserStateCap:    2,
			DetectorFactory: func() detector.Detector { return slow },
		})
		if err != nil {
			t.Fatal(err)
		}
		cl := srv.InProcess()
		defer cl.Close()
		responses := recvAll(cl)

		sh := srv.shards[0]
		table := func() []uint64 {
			sh.mu.Lock()
			defer sh.mu.Unlock()
			return slices.Clone(sh.order)
		}
		idle := func() bool {
			sh.mu.Lock()
			defer sh.mu.Unlock()
			for _, id := range sh.order {
				if sh.users[id].inflight != 0 {
					return false
				}
			}
			return true
		}
		var q DetectRequest
		frameID := uint64(0)
		send := func(user uint64) {
			t.Helper()
			frameID++
			tinyFrame(t, &q, frameID)
			q.UserID = user
			if err := cl.Send(&q); err != nil {
				t.Fatalf("send user %d: %v", user, err)
			}
		}
		recv := func(n int) {
			t.Helper()
			for i := 0; i < n; i++ {
				r, ok := <-responses
				if !ok || r.status != StatusOK {
					t.Fatalf("response %d/%d: ok %v status %v", i+1, n, ok, r.status)
				}
			}
		}
		check := func(when string, want ...uint64) {
			t.Helper()
			if got := table(); !slices.Equal(got, want) {
				t.Fatalf("%s: tracked users %v, want %v", when, got, want)
			}
			if n := srv.Metrics().ShardStats[0].TrackedUsers; n != len(want) {
				t.Fatalf("%s: TrackedUsers %d, want %d", when, n, len(want))
			}
		}

		// User 1's first frame parks the worker inside Detect and its
		// second waits in the queue; user 2 fills the table to the cap.
		// Users 3 and 4 then arrive at a full table whose every user has
		// a frame in flight: nobody may be evicted.
		send(1)
		<-slow.started
		send(1)
		send(2)
		send(3)
		send(4)
		waitFor(t, "admission", func() bool { return srv.Metrics().Accepted == 5 })
		check("every tracked user in flight", 1, 2, 3, 4)

		close(slow.gate)
		recv(5)
		waitFor(t, "drain", idle)
		check("drained", 1, 2, 3, 4)

		// Drained, each new user evicts exactly one: the oldest.
		send(5)
		recv(1)
		check("after user 5", 2, 3, 4, 5)
		send(6)
		recv(1)
		check("after user 6", 3, 4, 5, 6)

		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	})

	t.Run("an evicted user's reuse bases are reset", func(t *testing.T) {
		cons := constellation.MustNew(e2eQAM)
		backend := envBackend(t)
		srv, err := NewServer(Config{
			Shards:       1,
			UserStateCap: 2,
			DetectorFactory: func() detector.Detector {
				return core.New(cons, core.Options{NPE: e2eNPE, Backend: backend, PathReuse: true})
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		cl := srv.InProcess()
		defer cl.Close()

		// do sends user's next frame on its static channel and checks the
		// shard's cumulative reuse counters after it.
		var q DetectRequest
		var resp DetectResponse
		sent := map[uint64]uint64{}
		do := func(user uint64, wantHits, wantMisses int64) {
			t.Helper()
			sent[user]++
			fillFrameCoherent(t, &q, user, sent[user], 0)
			if err := cl.Do(&q, &resp); err != nil {
				t.Fatalf("user %d frame %d: %v", user, sent[user], err)
			}
			checkResponse(t, cons, &q, &resp)
			st := srv.Metrics().ShardStats[0]
			if st.ReuseHits != wantHits || st.ReuseMisses != wantMisses {
				t.Fatalf("after user %d frame %d: reuse hits/misses %d/%d, want %d/%d",
					user, sent[user], st.ReuseHits, st.ReuseMisses, wantHits, wantMisses)
			}
		}
		const k = e2eK
		do(1, 0, k)     // a fresh user: every subcarrier searched
		do(1, k, k)     // the same channel again: every subcarrier a hit
		do(2, k, 2*k)   // user 2 fills the table to the cap
		do(3, k, 3*k)   // user 3 evicts user 1, the oldest idle user
		do(1, k, 4*k)   // user 1 is new again (evicting user 2): all misses
		do(1, 2*k, 4*k) // and re-based: all hits

		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	})
}
