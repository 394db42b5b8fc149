package serve

import (
	"context"
	"runtime"
	"testing"
	"time"

	"flexcore/internal/constellation"
	"flexcore/internal/core"
	"flexcore/internal/detector"
)

// BenchmarkServeProcess measures the in-process serve hot path for one
// frame — decode the wire payload into a pooled task, detect every
// subcarrier burst, frame the response — excluding socket I/O. The
// reuse leg runs a static-channel user with per-user cross-frame reuse
// installed (every subcarrier a cache hit); the fresh leg pays the full
// §3.1.1 search per frame; the rungs leg alternates full and degraded
// frames of that user (every other frame a prefix hit). All must stay 0
// allocs/op: this is the benchmark twin of TestServeHotLoopZeroAllocs.
func BenchmarkServeProcess(b *testing.B) {
	cons, err := constellation.New(e2eQAM)
	if err != nil {
		b.Fatal(err)
	}
	for _, leg := range []struct {
		name         string
		reuse, rungs bool
	}{{"fresh", false, false}, {"reuse", true, false}, {"reuse-rungs", true, true}} {
		reuse := leg.reuse
		b.Run(leg.name, func(b *testing.B) {
			var ladder []int
			if leg.rungs {
				ladder = []int{e2eNPE / 2}
			}
			srv, err := NewServer(Config{
				Shards:        1,
				DegradeLadder: ladder,
				DetectorFactory: func() detector.Detector {
					opts := core.Options{NPE: e2eNPE, Backend: envBackend(b)}
					if reuse {
						opts.PathReuse = true
					}
					return core.New(cons, opts)
				},
			})
			if err != nil {
				b.Fatal(err)
			}
			defer func() {
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				defer cancel()
				srv.Shutdown(ctx)
			}()

			var q DetectRequest
			fillFrame(b, &q, 12, 1)
			payload := q.AppendPayload(nil)
			sh := srv.shards[0]
			tk := srv.taskPool.Get().(*task)
			if reuse {
				tk.user = &userState{}
			}
			defer srv.release(tk)
			hot := func() {
				if err := tk.req.Decode(payload); err != nil {
					b.Fatal(err)
				}
				tk.enq = time.Now()
				if leg.rungs {
					tk.rung ^= 1 // full, degraded, full, …
				}
				srv.process(sh, tk)
			}
			// Warm the arenas (and, on the reuse legs, base the state) on
			// every rung, both where the timed loop's frames may run — on
			// lanes, when a core is idle — and on the shard's detector
			// alone, where the gate's run at GOMAXPROCS 1 (AllocsPerRun)
			// puts every frame (DESIGN.md §8).
			hot()
			hot()
			procs := runtime.GOMAXPROCS(1)
			hot()
			hot()
			runtime.GOMAXPROCS(procs)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				hot()
			}
			b.StopTimer()
			if allocs := testing.AllocsPerRun(10, hot); allocs != 0 {
				b.Fatalf("serve process path allocates %.1f objects per frame, want 0", allocs)
			}
		})
	}
}
