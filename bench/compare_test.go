package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

func TestJudge(t *testing.T) {
	fps := metricDef{name: "sat_fps", unit: "1/s", higher: true, bound: 0.08}
	lat := metricDef{name: "lat_p50_us", unit: "us", bound: 0.10}
	ser := metricDef{name: "ser", unit: "share", bound: 0}
	steady := []float64{99, 100, 100, 100, 101, 100, 100}
	noisy := []float64{70, 100, 130, 85, 115, 100, 100}
	cases := []struct {
		d    metricDef
		a, b metricValue
		want string
	}{
		{fps, metricValue{Value: 100, Windows: steady}, metricValue{Value: 95, Windows: steady}, verdictSame},
		{fps, metricValue{Value: 100, Windows: steady}, metricValue{Value: 90, Windows: steady}, verdictWorse},
		{fps, metricValue{Value: 100, Windows: steady}, metricValue{Value: 120, Windows: steady}, verdictBetter},
		{fps, metricValue{Value: 100, Windows: noisy}, metricValue{Value: 88, Windows: steady}, verdictUnresolved},
		{lat, metricValue{Value: 100, Windows: steady}, metricValue{Value: 120, Windows: steady}, verdictWorse},
		{lat, metricValue{Value: 100, Windows: steady}, metricValue{Value: 80, Windows: steady}, verdictBetter},
		{lat, metricValue{Value: 100, Windows: steady}, metricValue{Value: 109, Windows: noisy}, verdictSame},
		// Exact counters: bound 0, no windows, any difference counts.
		{ser, metricValue{Value: 0.01}, metricValue{Value: 0.01}, verdictSame},
		{ser, metricValue{Value: 0.01}, metricValue{Value: 0.0101}, verdictWorse},
		{ser, metricValue{Value: 0.01}, metricValue{Value: 0.0099}, verdictBetter},
		{ser, metricValue{Value: 0}, metricValue{Value: 0.001}, verdictWorse},
	}
	for _, c := range cases {
		if _, got := judge(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s %v -> %v: verdict %s, want %s", c.d.name, c.a.Value, c.b.Value, got, c.want)
		}
	}
	if ratio, _ := judge(fps, metricValue{Value: 200}, metricValue{Value: 150}); ratio != 0.75 {
		t.Errorf("ratio = %v, want b/a = 0.75", ratio)
	}
}

func TestCompareFiles(t *testing.T) {
	steady := []float64{99, 100, 100, 100, 101, 100, 100}
	mk := func(fps, ser float64) resultsFile {
		var f resultsFile
		f.Seed = 1
		f.Workloads = []workloadReport{{
			Name:     "serve-static",
			EndToEnd: map[string]metricValue{"sat_fps": {Value: fps, Unit: "1/s", Windows: steady}},
			PerLayer: map[string]metricValue{"ser": {Value: ser, Unit: "share"}},
		}}
		return f
	}
	dir := t.TempDir()
	write := func(name string, f resultsFile) string {
		p := filepath.Join(dir, name)
		if err := writeJSON(p, f); err != nil {
			t.Fatal(err)
		}
		return p
	}
	a := write("a.json", mk(100, 0.01))
	same := write("same.json", mk(101, 0.01))
	slow := write("slow.json", mk(60, 0.01))

	var out bytes.Buffer
	worse, err := compareFiles(&out, a, same)
	if err != nil || worse {
		t.Fatalf("same run: worse=%v err=%v\n%s", worse, err, out.String())
	}
	if !strings.Contains(out.String(), "sat_fps") || !strings.Contains(out.String(), "ser") {
		t.Errorf("missing rows:\n%s", out.String())
	}
	out.Reset()
	worse, err = compareFiles(&out, a, slow)
	if err != nil || !worse {
		t.Fatalf("slower run: worse=%v err=%v\n%s", worse, err, out.String())
	}
	if !strings.Contains(out.String(), "0.6000") || !strings.Contains(out.String(), verdictWorse) {
		t.Errorf("row lacks the ratio or the verdict:\n%s", out.String())
	}
	if _, err := compareFiles(&out, a, filepath.Join(dir, "missing.json")); err == nil {
		t.Error("a missing file must be an error")
	}
}
