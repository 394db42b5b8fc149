package main

import (
	"runtime"
	"time"
)

// perLayer lists the traced pass's metrics, layer by layer (the layer
// is the module name before the first dot). A metric that does not
// apply to a workload — the serve metrics on a library workload, the
// reference-backend leg on a serve workload — reads 0 there.
// BENCHMARK.json carries the same names.
var perLayer = []metricDef{
	{name: "constellation.kth_ns", unit: "ns"},
	{name: "cmatrix.sorted_qr_us", unit: "us"},
	{name: "kernel32.set_channel_us", unit: "us"},
	{name: "kernel32.descend_us", unit: "us"},

	{name: "core.prepare_all_us", unit: "us"},
	{name: "core.model_us", unit: "us"},
	{name: "core.find_paths_us", unit: "us"},
	{name: "core.prepare_self_us", unit: "us"},
	{name: "core.select_us", unit: "us"},
	{name: "core.detect_first_us", unit: "us"},
	{name: "core.detect_us", unit: "us"},
	{name: "core.reuse_hit_share", unit: "share", higher: true},
	{name: "core.expanded_per_prepare", unit: "count"},
	{name: "core.real_muls_per_detect", unit: "count"},
	{name: "core.active_pes", unit: "count"},
	{name: "core.fallback_share", unit: "share"},
	{name: "core.c128.prepare_all_us", unit: "us"},
	{name: "core.c128.detect_us", unit: "us"},
	{name: "core.scaling_w2", unit: "ratio", higher: true},

	{name: "phy.detect_frame_us", unit: "us"},
	{name: "phy.self_us", unit: "us"},

	{name: "serve.req_encode_us", unit: "us"},
	{name: "serve.req_decode_us", unit: "us"},
	{name: "serve.resp_encode_us", unit: "us"},
	{name: "serve.resp_decode_us", unit: "us"},
	{name: "serve.frame_crc_us", unit: "us"},
	{name: "serve.bytes_per_frame", unit: "B"},
	{name: "serve.roundtrip_idle_us", unit: "us"},
	{name: "serve.inproc_idle_us", unit: "us"},
	{name: "serve.overhead_us", unit: "us"},
	{name: "serve.overhead_share", unit: "share"},
	{name: "serve.sat.queue_hwm", unit: "count"},
	{name: "serve.sat.server_lat_mean_us", unit: "us"},
	{name: "serve.mid.server_lat_mean_us", unit: "us"},
	{name: "serve.mid.client_minus_server_us", unit: "us"},
	{name: "serve.worker_busy_share", unit: "share", higher: true},
	{name: "serve.low.lat_p50_us", unit: "us"},
	{name: "serve.low.lat_p99_us", unit: "us"},
	{name: "serve.high.lat_p50_us", unit: "us"},
	{name: "serve.high.lat_p99_us", unit: "us"},
	{name: "serve.max_rate_in_slo_fps", unit: "1/s", higher: true},
	{name: "serve.rejected", unit: "count"},
	{name: "serve.expired", unit: "count"},
	{name: "serve.conn_errors", unit: "count"},
	{name: "serve.over.ok_share", unit: "share", higher: true},
	{name: "serve.over.degraded_share", unit: "share"},
	{name: "serve.over.expired_share", unit: "share"},
	{name: "serve.over.rejected_share", unit: "share"},
	{name: "serve.over.goodput_fps", unit: "1/s", higher: true},
	{name: "serve.over.lat_p99_us", unit: "us"},

	{name: "gen.late_p99_us", unit: "us"},
	{name: "trace.overhead_share", unit: "share"},
	{name: "proc.allocs_per_frame", unit: "count"},
	{name: "proc.heap_inuse_mb", unit: "MB"},
	{name: "proc.gc_cycles", unit: "count"},
	{name: "proc.gc_pause_total_ms", unit: "ms"},
	{name: "proc.nproc", unit: "count", higher: true},
	{name: "proc.gomaxprocs", unit: "count", higher: true},

	{name: "lat_p99_us", unit: "us"},
	{name: "ser", unit: "share"},
	{name: "fail_share", unit: "share"},
}

// passResult is what one pass over one workload measured.
type passResult struct {
	attempted, failed int
	metrics           map[string]sample
}

func newPassResult() *passResult { return &passResult{metrics: map[string]sample{}} }

func (r *passResult) count(o outcomes) {
	r.attempted += o.attempted
	r.failed += o.failed()
}

// setupRepeats is how many times a pass sets its workload up; setup_s
// is reduced over the repeats like every other timing (see quiet), so
// one disturbed start does not read as a regression.
const setupRepeats = 5

// timeSetups times setup setupRepeats times, tearing every set-up but
// the last down again, and leaves the last one standing for the pass.
func timeSetups(setup func() (teardown func() error, err error)) (sample, error) {
	var s sample
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		teardown, err := setup()
		if err != nil {
			return s, err
		}
		s.windows = append(s.windows, time.Since(t0).Seconds())
		if i < setupRepeats-1 {
			if err := teardown(); err != nil {
				return s, err
			}
		}
	}
	s.value = quiet(s.windows, false)
	return s, nil
}

// replayMetrics turns the layer replay's spans and counter deltas into
// the per-layer metrics both kinds of workload share.
func replayMetrics(m map[string]sample, w *workload, spans []span, c0, c1 counters) {
	set := func(name string, v float64) { m[name] = sample{value: v} }
	by := sumByName(spans)
	set("constellation.kth_ns", perCallMicros(by, spanKth)*1e3)
	set("cmatrix.sorted_qr_us", perCallMicros(by, spanSortedQR))
	set("kernel32.set_channel_us", perCallMicros(by, spanSetChannel))
	set("kernel32.descend_us", perCallMicros(by, spanDescend))
	set("core.prepare_all_us", perCallMicros(by, spanPrepareAll))
	set("core.model_us", perCallMicros(by, spanModel))
	set("core.find_paths_us", perCallMicros(by, spanFindPaths))
	set("core.prepare_self_us", selfPerSpanMicros(by, spanPrepareAll))
	set("core.select_us", perCallMicros(by, spanSelect))
	set("core.detect_first_us", perCallMicros(by, spanDetectFirst))
	set("core.detect_us", perCallMicros(by, spanDetect))
	set("phy.detect_frame_us", perCallMicros(by, spanDetectFrame))
	set("phy.self_us", selfPerSpanMicros(by, spanDetectFrame))
	if w.serve {
		set("serve.req_encode_us", perCallMicros(by, spanReqEncode))
		set("serve.req_decode_us", perCallMicros(by, spanReqDecode))
		set("serve.resp_encode_us", perCallMicros(by, spanRespEncode))
		set("serve.resp_decode_us", perCallMicros(by, spanRespDecode))
		set("serve.frame_crc_us", perCallMicros(by, spanFrameCRC))
	}

	hits := c1.pre.CacheHits - c0.pre.CacheHits
	misses := c1.pre.CacheMisses - c0.pre.CacheMisses
	if hits+misses > 0 {
		set("core.reuse_hit_share", float64(hits)/float64(hits+misses))
	}
	if n := c1.prepares - c0.prepares; n > 0 {
		set("core.expanded_per_prepare", float64(c1.pre.Expanded-c0.pre.Expanded)/float64(n))
	}
	if n := c1.detections - c0.detections; n > 0 {
		set("core.real_muls_per_detect", float64(c1.realMuls-c0.realMuls)/float64(n))
		set("core.fallback_share", float64(c1.fallbacks-c0.fallbacks)/float64(n))
	}
	if n := c1.activeN - c0.activeN; n > 0 {
		set("core.active_pes", (c1.activeSum-c0.activeSum)/float64(n))
	}
	set("proc.nproc", float64(runtime.NumCPU()))
	set("proc.gomaxprocs", float64(runtime.GOMAXPROCS(0)))
}
