package main

import (
	"math"
	"testing"
)

func seq(from, to int) []float64 {
	var v []float64
	for i := from; i <= to; i++ {
		v = append(v, float64(i))
	}
	return v
}

func TestPercentileNearestRank(t *testing.T) {
	cases := []struct {
		samples []float64
		p, want float64
	}{
		{seq(1, 100), 99, 99},
		{seq(1, 100), 50, 50},
		{seq(1, 100), 100, 100},
		{seq(1, 4), 50, 2},              // ceil(0.5·4) = 2nd sample, never the 2.5 an interpolation gives
		{seq(1, 5), 99, 5},              // fewer than 100 samples: p99 is the maximum
		{[]float64{7}, 1, 7},            // one sample is every percentile
		{[]float64{10, 20, 30}, 34, 20}, // ceil(1.02) = 2
		{nil, 50, 0},
	}
	for _, c := range cases {
		if got := percentile(c.samples, c.p); got != c.want {
			t.Errorf("percentile(%v, %v) = %v, want %v", c.samples, c.p, got, c.want)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("odd median = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	in := []float64{3, 1, 2}
	median(in)
	if in[0] != 3 || in[1] != 1 {
		t.Errorf("median reordered its input: %v", in)
	}
}

// TestQuartileSpreadMatchesPython pins the spread to the values
// Python's statistics.quantiles(v, n=4) gives, the rule the benchmark
// contract applies to ten runs.
func TestQuartileSpreadMatchesPython(t *testing.T) {
	cases := []struct {
		v    []float64
		want float64
	}{
		{seq(1, 10), (8.25 - 2.75) / 5.5},                  // quantiles = [2.75, 5.5, 8.25]
		{[]float64{10, 12, 11, 13, 50, 9, 10}, 3.0 / 11.0}, // sorted 9 10 10 11 12 13 50 → [10, 11, 13]: the outlier moves nothing
		{[]float64{1, 2}, (2.25 - 0.75) / 1.5},             // [0.75, 1.5, 2.25]: extrapolates like Python
		{[]float64{5}, 0},
	}
	for _, c := range cases {
		if got := quartileSpread(c.v); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quartileSpread(%v) = %v, want %v", c.v, got, c.want)
		}
	}
}

// TestQuietWindows checks that an end-to-end figure is the best decile
// over windows of each window's own value: disturbed windows, however
// many short of nine in ten, move nothing, and no single flattering
// window sets the figure either.
func TestQuietWindows(t *testing.T) {
	ws := make([]window, 20)
	for i := range ws {
		// Undisturbed: 100 frames in half a second, latencies 1..100.
		ws[i] = window{ok: 100, lat: seq(1, 100), busy: 0.5}
	}
	// A noisy neighbour slows twelve of the twenty windows.
	for i := 0; i < 12; i++ {
		ws[i] = window{ok: 60 + i, lat: seq(1001, 1060), busy: 0.5}
	}
	// One window is flattered by a boundary effect.
	ws[19] = window{ok: 130, lat: []float64{0.5}, busy: 0.5}
	fps, p50, p99 := windowStats(ws)
	if fps.value != 200 || p50.value != 50 || p99.value != 99 {
		t.Errorf("quiet figures = fps %v p50 %v p99 %v, want the undisturbed 200 50 99", fps.value, p50.value, p99.value)
	}
	if len(fps.windows) != 20 || fps.windows[0] != 120 || p99.windows[0] != 1060 {
		t.Errorf("per-window values not kept: fps %v p99 %v", fps.windows, p99.windows)
	}
	if got := median(fps.windows); got >= 200 {
		t.Errorf("median over windows = %v: the test's disturbance is not visible to a median at all", got)
	}

	// Back-to-back calls: the rate is frames over the time they took,
	// not over the window length a boundary cut.
	calls := []window{{ok: 10, lat: seq(1, 10), busy: 0.04}}
	if fps, _, _ := windowStats(calls); fps.value != 250 {
		t.Errorf("rate over busy time = %v, want 250", fps.value)
	}
	// An empty window has no latency and adds none.
	if _, p50, _ := windowStats([]window{{busy: 0.5}, {ok: 1, lat: []float64{7}, busy: 0.5}}); p50.value != 7 || len(p50.windows) != 1 {
		t.Errorf("empty window: p50 %+v", p50)
	}
}

func TestWindowPlan(t *testing.T) {
	if n, d := windowPlan(24); n != 48 || d.Seconds() != 0.5 {
		t.Errorf("windowPlan(24) = %d × %v", n, d)
	}
	// A smoke run still gets the minimum number of windows.
	if n, d := windowPlan(1); n != minWindows || d <= 0 {
		t.Errorf("windowPlan(1) = %d × %v", n, d)
	}
}
