package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"flexcore/internal/constellation"
	"flexcore/internal/core"
	"flexcore/internal/detector"
	"flexcore/internal/serve"
)

func testServer(t *testing.T) *serve.Server {
	t.Helper()
	cons, err := constellation.New(16)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := serve.NewServer(serve.Config{
		Shards: 1,
		DetectorFactory: func() detector.Detector {
			return core.New(cons, core.Options{NPE: 8})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// TestMetricsServerHasTimeouts is the regression for the bare
// http.ListenAndServe the metrics endpoint used to run on: a sidecar
// listener with no read/idle budgets is a slow-loris hole on a daemon
// whose data plane enforces deadlines.
func TestMetricsServerHasTimeouts(t *testing.T) {
	hs := newMetricsServer(":0", http.NewServeMux())
	if hs.ReadHeaderTimeout <= 0 {
		t.Fatal("metrics server has no ReadHeaderTimeout")
	}
	if hs.ReadTimeout <= 0 {
		t.Fatal("metrics server has no ReadTimeout")
	}
	if hs.WriteTimeout <= 0 {
		t.Fatal("metrics server has no WriteTimeout")
	}
	if hs.IdleTimeout <= 0 {
		t.Fatal("metrics server has no IdleTimeout")
	}
}

// TestMetricsMuxEndpoints drives the mux through httptest: /metrics
// must serve a parseable serve.Snapshot (including the PR 9 fields)
// and /healthz must flip to 503 once draining.
func TestMetricsMuxEndpoints(t *testing.T) {
	srv := testServer(t)
	ts := httptest.NewServer(newMetricsMux(srv, false))
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: %d", resp.StatusCode)
	}
	var snap serve.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatalf("/metrics did not serve a Snapshot: %v", err)
	}
	if snap.Shards != 1 {
		t.Fatalf("snapshot shards %d, want 1", snap.Shards)
	}
	if snap.ExpiredFrames != 0 || snap.DegradedFrames != 0 || snap.ConnTimeouts != 0 {
		t.Fatalf("fresh server reports expired %d degraded %d conn timeouts %d, want zeros",
			snap.ExpiredFrames, snap.DegradedFrames, snap.ConnTimeouts)
	}

	hz, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hz.Body.Close()
	if hz.StatusCode != http.StatusOK {
		t.Fatalf("/healthz before drain: %d", hz.StatusCode)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	hz, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hz.Body.Close()
	if hz.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/healthz after drain: %d, want 503", hz.StatusCode)
	}
}

// TestParseLadder pins the -ladder flag contract: the syntax, and that
// rungs are caps on the -npe detector, so a first rung at or above -npe
// — which used to "degrade" to a larger detector — is a flag error.
// The rest of the ordering stays with serve.NewServer.
func TestParseLadder(t *testing.T) {
	for _, tc := range []struct {
		spec string
		npe  int
		want []int // nil with ok = false: rejected
		ok   bool
	}{
		{"", 64, nil, true},
		{" 128, 32 ", 512, []int{128, 32}, true},
		{"63", 64, []int{63}, true},
		{"64,32", 64, nil, false},
		{"128,32", 64, nil, false},
		{"32,x", 64, nil, false},
	} {
		got, err := parseLadder(tc.spec, tc.npe)
		if (err == nil) != tc.ok {
			t.Errorf("parseLadder(%q, %d): err = %v, want ok = %v", tc.spec, tc.npe, err, tc.ok)
			continue
		}
		if len(got) != len(tc.want) {
			t.Errorf("parseLadder(%q, %d) = %v, want %v", tc.spec, tc.npe, got, tc.want)
			continue
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("parseLadder(%q, %d) = %v, want %v", tc.spec, tc.npe, got, tc.want)
			}
		}
	}
}
