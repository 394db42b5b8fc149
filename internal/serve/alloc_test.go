package serve

import (
	"bufio"
	"bytes"
	"context"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
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

// TestServeStripedFramesAllocFree gates what TestServeHotLoopZeroAllocs
// and BenchmarkServeProcess cannot see: testing.AllocsPerRun pins
// GOMAXPROCS to 1, so every frame they measure runs on one lane. Here
// process runs warm frames at GOMAXPROCS 2, where the shard's
// FrameDetector hands each frame to a helper lane, for the fresh, reuse
// and reuse-rungs legs, and they make no heap allocation. The method is
// internal/phy's TestStripedFrameAllocFree: the runtime's own caches of
// goroutines and threads still grow now and then (more often under the
// race detector), so the gate reads up to ten windows of 50 frames and
// needs one at 0 mallocs — one allocation per frame reads ≥ 50 in every
// window. A frame ran on two lanes when one of its bursts ran off the
// caller's goroutine; the window at 0 mallocs must hold such frames.
func TestServeStripedFramesAllocFree(t *testing.T) {
	if runtime.NumCPU() < 2 {
		t.Skip("a striped frame needs two cores: this host has one")
	}
	const frames, windows = 50, 10
	cons, err := constellation.New(e2eQAM)
	if err != nil {
		t.Fatal(err)
	}
	prev := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(prev)
	for _, leg := range []struct {
		name         string
		reuse, rungs bool
	}{{"fresh", false, false}, {"reuse", true, false}, {"reuse-rungs", true, true}} {
		t.Run(leg.name, func(t *testing.T) {
			var ladder []int
			if leg.rungs {
				ladder = []int{e2eNPE / 2}
			}
			srv, err := NewServer(Config{
				Shards:        1,
				DegradeLadder: ladder,
				DetectorFactory: func() detector.Detector {
					return core.New(cons, core.Options{NPE: e2eNPE, Backend: envBackend(t), PathReuse: leg.reuse})
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
			payload := q.AppendPayload(nil)
			sh := srv.shards[0]
			tk := srv.taskPool.Get().(*task)
			if leg.reuse {
				tk.user = &userState{}
			}
			caller := goid()
			var offCaller atomic.Int64 // bursts that ran on a helper lane
			tk.burst = func(k int) [][]complex128 {
				if goid() != caller {
					offCaller.Add(1)
				}
				return tk.req.Burst(k)
			}
			defer func() {
				tk.burst = tk.req.Burst
				srv.release(tk)
			}()
			// Drive process directly, as TestServeHotLoopZeroAllocs does.
			frame := func() {
				if err := tk.req.Decode(payload); err != nil {
					t.Fatal(err)
				}
				tk.enq = time.Now()
				if leg.rungs {
					tk.rung ^= 1 // full, degraded, full, …
				}
				srv.process(sh, tk)
			}
			for i := 0; i < 1000; i++ { // the runtime's goroutine caches warm over the first few hundred striped frames
				frame()
			}
			var mallocs []uint64
			var striped []int
			for w := 0; w < windows && (w == 0 || mallocs[w-1] != 0); w++ {
				n := 0
				var m0, m1 runtime.MemStats
				runtime.ReadMemStats(&m0)
				for i := 0; i < frames; i++ {
					before := offCaller.Load()
					frame()
					if offCaller.Load() != before {
						n++
					}
				}
				runtime.ReadMemStats(&m1)
				mallocs, striped = append(mallocs, m1.Mallocs-m0.Mallocs), append(striped, n)
			}
			t.Logf("mallocs per window of %d frames %v; frames with a burst on a helper lane %v", frames, mallocs, striped)
			if last := len(mallocs) - 1; mallocs[last] != 0 || striped[last] == 0 {
				t.Errorf("mallocs per window of %d frames %v, frames on two lanes %v: want a window at 0 mallocs with frames on two lanes", frames, mallocs, striped)
			}
			if leg.reuse {
				if hits := sh.fd.PreprocessStats().CacheHits; hits == 0 {
					t.Fatal("reuse leg never hit the per-user cross-frame cache")
				}
			}
		})
	}
}

// goidBuf is goid's scratch: one buffer behind a mutex, so that reading
// a goroutine's id allocates nothing.
var (
	goidMu  sync.Mutex
	goidBuf [64]byte
)

// goid returns the calling goroutine's id, parsed from the header line
// runtime.Stack writes ("goroutine 17 [running]:").
func goid() uint64 {
	goidMu.Lock()
	defer goidMu.Unlock()
	var id uint64
	for _, c := range goidBuf[len("goroutine "):runtime.Stack(goidBuf[:], false)] {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + uint64(c-'0')
	}
	return id
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
