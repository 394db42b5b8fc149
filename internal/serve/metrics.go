package serve

import (
	"encoding/json"
	"math/bits"
	"net/http"
	"sync/atomic"
	"time"

	"flexcore/internal/core"
	"flexcore/internal/detector"
)

// latencyBucketCount sizes the power-of-two latency histogram: bucket
// i counts completed requests whose admit→respond latency in
// microseconds has bit length i (i.e. lies in [2^(i−1), 2^i)), with
// the last bucket absorbing everything slower (~67 s).
const latencyBucketCount = 27

// metrics is the server's lock-free counter block. Counters are
// monotonically increasing atomics written on the hot path; gauges
// (queue depths, per-shard op counters) are sampled at Snapshot time.
type metrics struct {
	start time.Time

	accepted         atomic.Int64
	completed        atomic.Int64
	rejectedOverload atomic.Int64
	rejectedDraining atomic.Int64
	rejectedInvalid  atomic.Int64
	expired          atomic.Int64
	degraded         atomic.Int64
	badFrames        atomic.Int64
	writeErrors      atomic.Int64
	connTimeouts     atomic.Int64

	lat          [latencyBucketCount]atomic.Int64
	latCount     atomic.Int64
	latSumMicros atomic.Int64
}

// observe records one completed request's admit→respond latency.
//
//flexcore:noalloc
func (m *metrics) observe(d time.Duration) {
	us := d.Microseconds()
	if us < 0 {
		us = 0
	}
	b := bits.Len64(uint64(us))
	if b >= latencyBucketCount {
		b = latencyBucketCount - 1
	}
	m.lat[b].Add(1)
	m.latCount.Add(1)
	m.latSumMicros.Add(us)
}

// LatencyBucket is one histogram bin of a Snapshot: Count requests
// completed within (UpperMicros/2, UpperMicros] microseconds.
type LatencyBucket struct {
	UpperMicros int64 `json:"upper_micros"`
	Count       int64 `json:"count"`
}

// ShardStats is one shard's point-in-time gauges in a Snapshot.
type ShardStats struct {
	// QueueDepth is the shard's admitted-but-not-yet-processing backlog
	// right now; QueueHighWatermark is its maximum since start — the
	// capacity-planning signal QueueDepth alone misses between scrapes.
	QueueDepth         int `json:"queue_depth"`
	QueueHighWatermark int `json:"queue_high_watermark"`
	// TrackedUsers is the number of per-user states the shard currently
	// holds (bounded by Config.UserStateCap).
	TrackedUsers int `json:"tracked_users"`
	// ReuseHits/ReuseMisses are the Prepare path-reuse cache counters of
	// the shard's detector: hits are subcarriers whose §3.1.1
	// candidate-position search was skipped via the user's cross-frame
	// coherence cache, misses are fresh searches with reuse enabled. Both
	// stay 0 when the detector factory leaves PathReuse off.
	ReuseHits   int64 `json:"reuse_hits"`
	ReuseMisses int64 `json:"reuse_misses"`
}

// Snapshot is a point-in-time view of the server's metrics — the JSON
// document served by the metrics endpoint.
type Snapshot struct {
	UptimeSeconds float64      `json:"uptime_seconds"`
	Shards        int          `json:"shards"`
	QueueCapacity int          `json:"queue_capacity"`
	ShardStats    []ShardStats `json:"shard_stats"`

	Accepted  int64 `json:"accepted"`
	Completed int64 `json:"completed"`
	// InFlight is accepted − completed: queued or detecting right now.
	InFlight int64 `json:"in_flight"`
	// Rejected* count explicit rejections (the service never drops work
	// silently: every rejection was answered with its status code).
	RejectedOverload int64 `json:"rejected_overload"`
	RejectedDraining int64 `json:"rejected_draining"`
	RejectedInvalid  int64 `json:"rejected_invalid"`
	// ExpiredFrames counts frames shed with StatusExpired because their
	// staleness budget (DetectRequest.DeadlineMicros) elapsed before a
	// worker started detecting them. Frames expired at dequeue also
	// count in Completed (the in-flight ledger drains through them);
	// frames expired at admission count in neither Accepted nor
	// Completed.
	ExpiredFrames int64 `json:"expired_frames"`
	// DegradedFrames counts frames the pressure controller served at a
	// reduced N_PE from Config.DegradeLadder (also counted in
	// Completed; the response carries the served N_PE).
	DegradedFrames int64 `json:"degraded_frames"`
	// BadFrames counts connections dropped for unrecoverable framing
	// errors (bad magic, checksum mismatch, truncation).
	BadFrames int64 `json:"bad_frames"`
	// WriteErrors counts connections condemned for a failed or stalled
	// response write (one count per connection).
	WriteErrors int64 `json:"write_errors"`
	// ConnTimeouts counts connections closed by the hygiene deadlines:
	// idle reaping, a mid-frame read stall, or a write stall.
	ConnTimeouts int64 `json:"conn_timeouts"`

	// ThroughputFPS is completed frames per second of uptime.
	ThroughputFPS float64 `json:"throughput_fps"`

	// LatencyMeanMicros is the mean admit→respond latency of the
	// completed frames, each counted in whole microseconds.
	// LatencyP50/P95/P99Micros are not exact: each is the upper bound
	// 2^i − 1 of the power-of-two Latency bucket the percentile falls
	// in, so it reads up to 2× the true value.
	LatencyMeanMicros float64         `json:"latency_mean_micros"`
	LatencyP50Micros  int64           `json:"latency_p50_micros"`
	LatencyP95Micros  int64           `json:"latency_p95_micros"`
	LatencyP99Micros  int64           `json:"latency_p99_micros"`
	Latency           []LatencyBucket `json:"latency"`

	// OpCount aggregates the detection arithmetic of every shard
	// detector in the units the paper reports (Table 1/2).
	OpCount detector.OpCount `json:"op_count"`
	// Preprocess aggregates the per-shard pre-processing counters
	// (tree-search work, active paths, path-reuse cache hits/misses).
	Preprocess core.PreprocessStats `json:"preprocess"`
	// AvgActivePEs is the mean active processing-element count per
	// prepared subcarrier, Preprocess.ActivePaths / OpCount.Prepares
	// (a-FlexCore's flexibility knob; equals NPE for plain FlexCore, 0
	// for detectors that do not report it).
	AvgActivePEs float64 `json:"avg_active_pes"`
}

// Metrics returns a consistent-enough point-in-time snapshot: counters
// are individually atomic, queue depths and shard op counters are
// sampled per shard.
func (s *Server) Metrics() Snapshot {
	snap := Snapshot{
		UptimeSeconds:    time.Since(s.met.start).Seconds(),
		Shards:           len(s.shards),
		QueueCapacity:    s.cfg.QueueDepth,
		ShardStats:       make([]ShardStats, len(s.shards)),
		Accepted:         s.met.accepted.Load(),
		Completed:        s.met.completed.Load(),
		RejectedOverload: s.met.rejectedOverload.Load(),
		RejectedDraining: s.met.rejectedDraining.Load(),
		RejectedInvalid:  s.met.rejectedInvalid.Load(),
		ExpiredFrames:    s.met.expired.Load(),
		DegradedFrames:   s.met.degraded.Load(),
		BadFrames:        s.met.badFrames.Load(),
		WriteErrors:      s.met.writeErrors.Load(),
		ConnTimeouts:     s.met.connTimeouts.Load(),
	}
	snap.InFlight = snap.Accepted - snap.Completed
	if snap.UptimeSeconds > 0 {
		snap.ThroughputFPS = float64(snap.Completed) / snap.UptimeSeconds
	}

	for i, sh := range s.shards {
		sh.mu.Lock()
		st := ShardStats{
			QueueDepth:         len(sh.runnable),
			QueueHighWatermark: sh.waitHWM,
			TrackedUsers:       len(sh.users),
		}
		sh.mu.Unlock()
		sh.statsMu.Lock()
		snap.OpCount.Add(sh.ops)
		snap.Preprocess.Add(sh.pre)
		st.ReuseHits, st.ReuseMisses = sh.pre.CacheHits, sh.pre.CacheMisses
		sh.statsMu.Unlock()
		snap.ShardStats[i] = st
	}
	if snap.OpCount.Prepares > 0 {
		snap.AvgActivePEs = float64(snap.Preprocess.ActivePaths) / float64(snap.OpCount.Prepares)
	}

	total := s.met.latCount.Load()
	if total > 0 {
		snap.LatencyMeanMicros = float64(s.met.latSumMicros.Load()) / float64(total)
	}
	var cum int64
	p50, p95, p99 := false, false, false
	for i := 0; i < latencyBucketCount; i++ {
		n := s.met.lat[i].Load()
		upper := int64(1)<<uint(i) - 1
		if n > 0 {
			snap.Latency = append(snap.Latency, LatencyBucket{UpperMicros: upper, Count: n})
		}
		cum += n
		if total > 0 {
			if !p50 && cum*100 >= total*50 {
				snap.LatencyP50Micros, p50 = upper, true
			}
			if !p95 && cum*100 >= total*95 {
				snap.LatencyP95Micros, p95 = upper, true
			}
			if !p99 && cum*100 >= total*99 {
				snap.LatencyP99Micros, p99 = upper, true
			}
		}
	}
	return snap
}

// MetricsHandler returns an http.Handler serving the JSON Snapshot —
// the daemon mounts it at /metrics.
func (s *Server) MetricsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(s.Metrics()); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
}
