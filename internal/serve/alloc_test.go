package serve

import (
	"bufio"
	"bytes"
	"context"
	"io"
	"testing"
	"time"

	"flexcore/internal/constellation"
	"flexcore/internal/core"
	"flexcore/internal/detector"
)

// TestServeHotLoopZeroAllocs gates the per-frame serve hot path at 0
// allocs/op in steady state: decode a request into a pooled task, run
// it through process (PrepareAll/Select + DetectBatch, response
// streaming, framing, metrics). Everything on this path is task- or
// shard-owned and reused — the same discipline the core detector's
// alloc gates enforce, extended through the serving layer.
func TestServeHotLoopZeroAllocs(t *testing.T) {
	cons, err := constellation.New(e2eQAM)
	if err != nil {
		t.Fatal(err)
	}
	// The reuse leg runs the same hot path with PathReuse enabled and a
	// per-user ReuseState installed — the serve steady state for a
	// static-channel user, where every subcarrier is a cross-frame
	// cache hit. The rungs leg alternates full and degraded frames on
	// top: every other frame is served from the base by prefix. The
	// two-geometries leg alternates a 5×4 and an 8×8 user on the one
	// worker, so the detector's Q/R factors and the decode planes are
	// reshaped on every frame.
	for _, leg := range []struct {
		name                string
		reuse, rungs, mixed bool
	}{{"fresh", false, false, false}, {"reuse", true, false, false}, {"reuse-rungs", true, true, false},
		{"two-geometries", false, false, true}, {"two-geometries-reuse", true, false, true}} {
		reuse := leg.reuse
		t.Run(leg.name, func(t *testing.T) {
			var ladder []int
			if leg.rungs {
				ladder = []int{e2eNPE / 2}
			}
			srv, err := NewServer(Config{
				Shards:        1,
				DegradeLadder: ladder,
				DetectorFactory: func() detector.Detector {
					opts := core.Options{NPE: e2eNPE, Backend: envBackend(t)}
					if reuse {
						opts.PathReuse = true
					}
					return core.New(cons, opts)
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer func() {
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				defer cancel()
				srv.Shutdown(ctx)
			}()

			var q DetectRequest
			fillFrame(t, &q, 12, 1)
			payloads := [][]byte{q.AppendPayload(nil)}
			users := []*userState{{}}
			if leg.mixed {
				fillFrameGeometry(t, &q, 13, 1, 8, 8)
				payloads = append(payloads, q.AppendPayload(nil))
				users = append(users, &userState{})
			}

			// Drive process directly: the shard's worker sits idle on its
			// queue, so the test owns the detector without racing it.
			sh := srv.shards[0]
			tk := srv.taskPool.Get().(*task)
			frame := 0
			hot := func() {
				frame++
				if err := tk.req.Decode(payloads[frame%len(payloads)]); err != nil {
					t.Fatal(err)
				}
				if reuse {
					tk.user = users[frame%len(users)]
				}
				tk.enq = time.Now()
				if leg.rungs {
					tk.rung ^= 1 // full, degraded, full, …
				}
				srv.process(sh, tk)
			}
			// Warm-up: first iterations grow the request arenas, the response
			// and wire buffers and the detector's pooled storage to their
			// high-water marks.
			for i := 0; i < 4; i++ {
				hot()
			}
			if allocs := testing.AllocsPerRun(50, hot); allocs != 0 {
				t.Fatalf("serve hot loop allocates %.1f objects per frame, want 0", allocs)
			}
			if reuse {
				if hits := sh.fd.PreprocessStats().CacheHits; hits == 0 {
					t.Fatal("reuse leg never hit the per-user cross-frame cache")
				}
			}
			srv.release(tk)
		})
	}

	// The reject leg drives admit's two on-the-spot rejections — expired
	// at admission, then draining once Shutdown has begun — onto a conn
	// whose writer discards. Each rejection hands its task back to the
	// pool, so a task leaked on a reject path shows up as an allocation
	// at the next Get.
	t.Run("reject", func(t *testing.T) {
		if raceEnabled {
			t.Skip("the race detector's sync.Pool drops a random share of Puts")
		}
		srv, err := NewServer(Config{
			Shards: 1,
			DetectorFactory: func() detector.Detector {
				return core.New(cons, core.Options{NPE: e2eNPE, Backend: envBackend(t)})
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		shutdown := func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			srv.Shutdown(ctx)
		}
		defer shutdown()

		var q DetectRequest
		fillFrame(t, &q, 12, 1)
		q.DeadlineMicros = 1 // with enq a second back: expired at admission
		payload := q.AppendPayload(nil)
		c := &serverConn{bw: bufio.NewWriter(io.Discard)}
		reject := func() {
			tk := srv.taskPool.Get().(*task)
			if err := tk.req.Decode(payload); err != nil {
				t.Fatal(err)
			}
			tk.c = c
			tk.enq = time.Now().Add(-time.Second)
			srv.admit(tk)
		}
		reject() // warm-up: grow the task's request arenas and the conn's rejection scratch
		if allocs := testing.AllocsPerRun(50, reject); allocs != 0 {
			t.Fatalf("expired-at-admission rejection allocates %.1f objects per frame, want 0", allocs)
		}
		shutdown()
		if allocs := testing.AllocsPerRun(50, reject); allocs != 0 {
			t.Fatalf("draining rejection allocates %.1f objects per frame, want 0", allocs)
		}
		if srv.met.expired.Load() == 0 || srv.met.rejectedDraining.Load() == 0 {
			t.Fatalf("rejections not taken: expired %d, draining %d", srv.met.expired.Load(), srv.met.rejectedDraining.Load())
		}
	})
}

// raceEnabled is set under the race detector (race_test.go), whose
// sync.Pool drops a random share of Puts: an allocation at the next Get
// that is not a leak.
var raceEnabled bool

// TestReadFrameZeroAllocs gates the ingest side of the wire codec: a
// connection's read loop reuses one buffer, so decoding a stream of
// same-sized frames must not allocate.
func TestReadFrameZeroAllocs(t *testing.T) {
	var q DetectRequest
	fillFrame(t, &q, 4, 1)
	w := AppendFrame(nil, MsgDetect, q.AppendPayload(nil))
	r := bytes.NewReader(w)
	var buf []byte
	var err error
	read := func() {
		r.Reset(w)
		if _, _, buf, err = ReadFrame(r, buf); err != nil {
			t.Fatal(err)
		}
	}
	read()
	if allocs := testing.AllocsPerRun(100, read); allocs != 0 {
		t.Fatalf("ReadFrame allocates %.1f objects per frame, want 0", allocs)
	}
}

// TestWireEncodeZeroAllocs gates the client-side encode path: framing a
// request into reused buffers must not allocate.
func TestWireEncodeZeroAllocs(t *testing.T) {
	var q DetectRequest
	fillFrame(t, &q, 3, 1)
	var payload, wire []byte
	enc := func() {
		payload = q.AppendPayload(payload[:0])
		wire = AppendFrame(wire[:0], MsgDetect, payload)
	}
	enc()
	if allocs := testing.AllocsPerRun(100, enc); allocs != 0 {
		t.Fatalf("encode path allocates %.1f objects per frame, want 0", allocs)
	}
}
