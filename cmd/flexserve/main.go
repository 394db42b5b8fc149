// Command flexserve is the long-running FlexCore detection service
// (DESIGN.md §12–13): it accepts concurrent uplink detection frames
// from many users over a length-prefixed binary TCP protocol, shards
// them across single-worker shards (one detector each, per-user FIFO
// order from the shard's one queue) with consistent user→shard routing,
// applies bounded admission queues with explicit overload rejection,
// reuses each user's Prepare results across frames when -reuse is set,
// coalesces response writes per connection, and exposes a JSON metrics
// endpoint (latency histogram, throughput, per-shard queue depths and
// high-watermarks, reuse hit/miss counters, rejection counts,
// aggregated OpCount/PreprocessStats). On SIGINT/SIGTERM it drains
// gracefully: admitted frames detect and respond, new work is rejected
// with StatusDraining.
//
// Example:
//
//	flexserve -listen :7600 -metrics :7601 -shards 4 -qam 16 -npe 64
//	flexserve -listen :7600 -shards 8 -reuse -qam 64 -npe 128 -backend soa32
//	flexserve -listen :7600 -npe 512 -ladder 128,32 -degrade-start 0.5 -idle-timeout 2m
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	httppprof "net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"flexcore/internal/constellation"
	"flexcore/internal/core"
	"flexcore/internal/detector"
	"flexcore/internal/serve"
)

func main() {
	listen := flag.String("listen", ":7600", "TCP address for the frame-ingest protocol")
	metricsAddr := flag.String("metrics", ":7601", "HTTP address for /metrics and /healthz (empty disables)")
	shards := flag.Int("shards", 4, "detection shards (one admission queue + one worker goroutine with one detector each)")
	queue := flag.Int("queue", 256, "per-shard admission queue depth (full queue ⇒ StatusOverloaded)")
	userCap := flag.Int("usercap", 0, "per-shard tracked-user state cap (0 = default; idle users evict FIFO)")
	qam := flag.Int("qam", 16, "QAM order served (4, 16, 64, 256, 1024)")
	npe := flag.Int("npe", 64, "FlexCore processing elements per detector")
	threshold := flag.Float64("threshold", 0, "a-FlexCore stopping threshold (0 = fixed NPE; paper uses 0.95)")
	reuse := flag.Bool("reuse", false, "position-vector reuse per user across frames, on bit-identical per-level model input (output-neutral)")
	backendName := flag.String("backend", "", "kernel backend: complex128 (default) or soa32")
	ladder := flag.String("ladder", "", "comma-separated descending N_PE degradation rungs (e.g. 128,32 under -npe 512); empty disables graceful degradation")
	degradeStart := flag.Float64("degrade-start", 0, "queue-fill fraction at which degradation begins (0 = default 0.5)")
	readTimeout := flag.Duration("read-timeout", 30*time.Second, "per-frame read budget once a header has arrived (0 disables)")
	idleTimeout := flag.Duration("idle-timeout", 5*time.Minute, "idle-connection reap budget between frames (0 disables)")
	writeTimeout := flag.Duration("write-timeout", 30*time.Second, "per-flush response write budget (0 disables)")
	drainTimeout := flag.Duration("drain", 30*time.Second, "graceful-drain budget on SIGINT/SIGTERM")
	pprof := flag.Bool("pprof", false, "mount net/http/pprof profiling handlers on the metrics address")
	flag.Parse()

	cons, err := constellation.New(*qam)
	if err != nil {
		fatal(err)
	}
	backend, ok := core.ParseBackend(*backendName)
	if !ok {
		fatal(fmt.Errorf("unknown backend %q", *backendName))
	}
	opts := core.Options{
		NPE:       *npe,
		Threshold: *threshold,
		PathReuse: *reuse,
		Backend:   backend,
	}

	rungs, err := parseLadder(*ladder, *npe)
	if err != nil {
		fatal(err)
	}
	scfg := serve.Config{
		Shards:       *shards,
		QueueDepth:   *queue,
		UserStateCap: *userCap,
		DegradeStart: *degradeStart,
		ReadTimeout:  *readTimeout,
		IdleTimeout:  *idleTimeout,
		WriteTimeout: *writeTimeout,
		DetectorFactory: func() detector.Detector {
			return core.New(cons, opts)
		},
		DegradeLadder: rungs,
	}
	srv, err := serve.NewServer(scfg)
	if err != nil {
		fatal(err)
	}

	if *metricsAddr != "" {
		hs := newMetricsServer(*metricsAddr, newMetricsMux(srv, *pprof))
		//lint:ignore waitdiscipline process-lifetime sidecar: the metrics endpoint serves until the process exits; there is no drain point to join it at
		go func() {
			if err := hs.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				fmt.Fprintf(os.Stderr, "flexserve: metrics endpoint: %v\n", err)
			}
		}()
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	//lint:ignore waitdiscipline signal-lifetime: Shutdown here is what unblocks ListenAndServe below, so the goroutine cannot be joined before the serve loop exits; it ends with the process
	go func() {
		<-ctx.Done()
		fmt.Fprintln(os.Stderr, "flexserve: draining…")
		drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := srv.Shutdown(drainCtx); err != nil {
			fmt.Fprintf(os.Stderr, "flexserve: drain incomplete: %v\n", err)
			os.Exit(1)
		}
	}()

	fmt.Printf("flexserve: %d-QAM, %d shards × (NPE=%d, backend=%s), queue depth %d\n",
		*qam, *shards, *npe, backend, *queue)
	if len(rungs) > 0 {
		fmt.Printf("flexserve: degradation ladder %v (start at %.0f%% queue fill)\n", rungs, scfg.DegradeStart*100)
	}
	fmt.Printf("flexserve: listening on %s (metrics on %s)\n", *listen, *metricsAddr)
	if err := srv.ListenAndServe(*listen); err != nil {
		fatal(err)
	}
	snap := srv.Metrics()
	fmt.Printf("flexserve: drained — %d completed, %d rejected (%d overload, %d draining, %d invalid)\n",
		snap.Completed, snap.RejectedOverload+snap.RejectedDraining+snap.RejectedInvalid,
		snap.RejectedOverload, snap.RejectedDraining, snap.RejectedInvalid)
}

// parseLadder parses the -ladder flag: a comma-separated list of
// descending N_PE rungs, empty for none. A rung is a cap on the -npe
// detector, so the first (largest) must lie below npe — at or above it
// the server would report frames as degraded that were not. Ordering
// and positivity of the rest are validated by serve.NewServer.
func parseLadder(spec string, npe int) ([]int, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, nil
	}
	parts := strings.Split(spec, ",")
	rungs := make([]int, 0, len(parts))
	for _, p := range parts {
		n, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("-ladder %q: %w", spec, err)
		}
		rungs = append(rungs, n)
	}
	if rungs[0] >= npe {
		return nil, fmt.Errorf("-ladder %q: first rung %d must be below -npe %d", spec, rungs[0], npe)
	}
	return rungs, nil
}

// newMetricsMux builds the metrics/health mux served on -metrics.
func newMetricsMux(srv *serve.Server, pprof bool) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/metrics", srv.MetricsHandler())
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		if srv.Draining() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ok")
	})
	if pprof {
		// net/http/pprof self-registers on http.DefaultServeMux,
		// which flexserve never serves; mount the handlers on the
		// metrics mux explicitly so profiling shares that listener.
		mux.HandleFunc("/debug/pprof/", httppprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", httppprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", httppprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", httppprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", httppprof.Trace)
	}
	return mux
}

// newMetricsServer wraps the mux in an http.Server with every idle- and
// slow-client budget set: the metrics sidecar must never be the
// unbounded listener on a box whose data plane enforces deadlines.
// (The pprof profile endpoint streams for its ?seconds= window, so the
// write budget stays generous.)
func newMetricsServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       10 * time.Second,
		WriteTimeout:      2 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "flexserve:", err)
	os.Exit(1)
}
