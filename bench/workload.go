package main

import (
	"math"

	"flexcore/internal/core"
)

// workload is one fixed set of inputs. Everything the program under
// test can observe — geometry, noise, how channels change from frame to
// frame, the offered rates — is a constant here; only the random draws
// come from -seed.
type workload struct {
	name string
	why  string

	// serve workloads drive the TCP service; the others call
	// phy.FrameDetector.DetectFrame directly.
	serve bool

	nr, nt, qam, npe int
	k, s             int // subcarriers, OFDM symbols per frame
	sigma2           float64

	// users × frames is the pregenerated ring. A static user keeps one
	// channel draw for all its frames (every PrepareAll after the first
	// is a reuse hit); otherwise every frame has fresh channels.
	users, frames int
	static        bool
	// reuse turns on PathReuse at threshold 0, the serving
	// configuration; the library workloads run with reuse off.
	reuse bool

	// rates are the frozen offered rates of the paced phases, frames
	// per second summed over both connections: low, mid, high.
	rates [3]float64
	// overload adds the degrade-ladder step to the traced run.
	overload bool
}

// Serve-side constants shared by both serve workloads (sized for a
// 2-core host: the generator and the server share the cores).
const (
	serveConns   = 2
	serveShards  = 2
	serveWorkers = 1
	// serveQueueDepth is deep enough that a paced phase never has a
	// frame refused: when the host stalls for tens of milliseconds, or
	// sits in a slow state below the high rate for the whole phase, the
	// backlog costs latency, which is measured, not failures. (At 256 a
	// stall during the 3000 frames/s phase refused 80 frames in one of
	// the sizing runs.)
	serveQueueDepth = 4096
	// serveInflight is the closed-loop window per connection.
	serveInflight = 8
	// warmupPerUser frames per user run before the first timed window,
	// so every reuse base, arena and connection buffer is at its high-
	// water mark when timing starts.
	warmupPerUser = 8
	// sloMicros is the latency limit serve.max_rate_in_slo_fps holds
	// p99 to.
	sloMicros = 10000

	overloadRate           = 3000
	overloadDeadlineMicros = 20000
	// overloadQueueDepth is the overload server's admission backlog:
	// short enough that the queue reaches the ladder's rungs (from half
	// full) and its capacity before the 20 ms budget empties it, so
	// degradation, expiry and refusal all take part.
	overloadQueueDepth = 32
)

// overloadLadder is the degrade ladder of the overload step's server.
var overloadLadder = []int{128, 32}

var workloads = []workload{
	{
		name:  "serve-static",
		why:   "16 users with static channels: at least 99% reuse hits, so symbol-rate Detect and the serve path do almost all the work and the path search almost none",
		serve: true, nr: 4, nt: 4, qam: 16, npe: 512, k: 8, s: 1, sigma2: 0.05,
		users: 16, frames: 32, static: true, reuse: true,
		rates: [3]float64{800, 1600, 3000},
	},
	{
		name:  "serve-mobile",
		why:   "same server, every channel redrawn every frame: the reuse cache only misses and stores, so channel-rate Prepare is ~half of service time",
		serve: true, nr: 4, nt: 4, qam: 16, npe: 512, k: 8, s: 1, sigma2: 0.05,
		users: 16, frames: 32, reuse: true,
		rates:    [3]float64{400, 800, 1500},
		overload: true,
	},
	{
		name: "frame-detect",
		why:  "library path at the paper geometry 12x12 64-QAM N_PE=128, 48 subcarriers x 4 symbols: deep-tree symbol-rate detection with no serve layer at all",
		nr:   12, nt: 12, qam: 64, npe: 128, k: 48, s: 4, sigma2: sigma2AtDB(16),
		users: 1, frames: 12,
	},
	{
		name: "frame-prep",
		why:  "library path 8x8 64-QAM N_PE=128, one vector per fresh channel, reuse off: the largest channel-rate share the frame API allows",
		nr:   8, nt: 8, qam: 64, npe: 128, k: 48, s: 1, sigma2: sigma2AtDB(17),
		users: 1, frames: 32,
	},
}

// sigma2AtDB is the noise variance at a per-stream SNR Es/σ² with the
// constellations' unit symbol energy.
func sigma2AtDB(db float64) float64 { return math.Pow(10, -db/10) }

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// options is the detector configuration of the workload at the given
// N_PE, backend and intra-detector worker count.
func (w *workload) options(npe int, backend core.Backend, workers int) core.Options {
	return core.Options{NPE: npe, Workers: workers, Backend: backend, PathReuse: w.reuse}
}

// metricDef names one reported metric.
type metricDef struct {
	name, unit string
	// higher is true when a larger value is better.
	higher bool
	// bound is the share by which the metric may worsen before
	// -compare calls it worse; exact counters have bound 0.
	bound float64
}

// endToEnd lists the metrics a user of the system sees, in the order
// they print. BENCHMARK.json carries the same names and bounds. The
// bounds are wide because the host is noisy, not because the program
// is (README.md, "Bounds"); lat_p99_us is a per-layer metric for the
// same reason.
var endToEnd = []metricDef{
	{"setup_s", "s", false, 0.25},
	{"sat_fps", "1/s", true, 0.20},
	{"lat_p50_us", "us", false, 0.25},
}

// exactCounters are the per-layer metrics that are counts made by the
// program: identical for one seed, so -compare holds them to bound 0.
var exactCounters = []metricDef{
	{"ser", "share", false, 0},
	{"fail_share", "share", false, 0},
	{"core.reuse_hit_share", "share", true, 0},
	{"core.expanded_per_prepare", "count", false, 0},
	{"core.real_muls_per_detect", "count", false, 0},
}
