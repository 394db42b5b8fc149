package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Verdicts of one compared (workload, metric) pair.
const (
	verdictBetter     = "better"
	verdictSame       = "same"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// judge compares b against base a for one metric. The change is
// b/a − 1 signed so that positive is worse. Inside the bound either way
// the pair reads the same; beyond it better or worse — unless the
// metric's own windows spread wider than the bound in either run, when
// one run cannot resolve a change that size and the verdict says so.
// An exact counter has bound 0 and no windows: any difference counts.
func judge(d metricDef, a, b metricValue) (ratio float64, verdict string) {
	if a.Value == b.Value { //lint:ignore floatcmp identical measurements (exact counters, or both absent) are the same by definition
		return 1, verdictSame
	}
	if a.Value <= 0 {
		if d.higher {
			return 0, verdictBetter
		}
		return 0, verdictWorse
	}
	ratio = b.Value / a.Value
	worse := ratio - 1
	if d.higher {
		worse = -worse
	}
	switch {
	case worse <= d.bound && worse >= -d.bound:
		return ratio, verdictSame
	case quartileSpread(a.Windows) > d.bound || quartileSpread(b.Windows) > d.bound:
		return ratio, verdictUnresolved
	case worse > 0:
		return ratio, verdictWorse
	default:
		return ratio, verdictBetter
	}
}

func readResults(path string) (*resultsFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultsFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// compareFiles prints one row per (workload, end-to-end metric) and
// per (workload, exact counter) present in both files — both values,
// the ratio b/a with a as its base, the bound and the verdict — and
// reports whether any row is worse.
func compareFiles(out io.Writer, pathA, pathB string) (anyWorse bool, err error) {
	a, err := readResults(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResults(pathB)
	if err != nil {
		return false, err
	}
	if a.Seed != b.Seed {
		fmt.Fprintf(out, "note: seeds differ (%d vs %d): exact counters are expected to differ\n", a.Seed, b.Seed)
	}
	fmt.Fprintf(out, "%-14s %-28s %14s %14s %9s %7s  %s\n", "workload", "metric", "a", "b", "b/a", "bound", "verdict")
	for _, wa := range a.Workloads {
		var wb *workloadReport
		for i := range b.Workloads {
			if b.Workloads[i].Name == wa.Name {
				wb = &b.Workloads[i]
			}
		}
		if wb == nil {
			continue
		}
		row := func(d metricDef, va, vb metricValue) {
			ratio, verdict := judge(d, va, vb)
			anyWorse = anyWorse || verdict == verdictWorse
			fmt.Fprintf(out, "%-14s %-28s %14.6g %14.6g %9.4f %7.3f  %s\n", wa.Name, d.name, va.Value, vb.Value, ratio, d.bound, verdict)
		}
		for _, d := range endToEnd {
			va, okA := wa.EndToEnd[d.name]
			vb, okB := wb.EndToEnd[d.name]
			if okA && okB {
				row(d, va, vb)
			}
		}
		for _, d := range exactCounters {
			va, okA := wa.PerLayer[d.name]
			vb, okB := wb.PerLayer[d.name]
			if okA && okB {
				row(d, va, vb)
			}
		}
	}
	return anyWorse, nil
}
