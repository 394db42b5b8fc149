package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestQuickSmoke is the -quick run: every workload, both passes, about
// a second each on shrunken rings. It pins what a short run can pin —
// every response matches the offline reference, every metric is
// reported, the layers separate as designed — and none of the timings.
func TestQuickSmoke(t *testing.T) {
	for i := range workloads {
		w := workloads[i].shrunk()
		t.Run(w.name, func(t *testing.T) {
			rep, spans, err := runWorkload(&w, 7, 1, -1)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
				t.Fatalf("attempted %d, failed %d, correct %v", rep.Attempted, rep.Failed, rep.Correct)
			}
			for _, d := range endToEnd {
				if _, ok := rep.EndToEnd[d.name]; !ok {
					t.Errorf("end-to-end metric %s missing", d.name)
				}
			}
			for _, d := range perLayer {
				if _, ok := rep.PerLayer[d.name]; !ok {
					t.Errorf("per-layer metric %s missing", d.name)
				}
			}
			if rep.EndToEnd["setup_s"].Value <= 0 || len(rep.EndToEnd["setup_s"].Windows) != setupRepeats {
				t.Errorf("setup_s = %+v", rep.EndToEnd["setup_s"])
			}
			if len(spans) == 0 {
				t.Fatal("the traced pass recorded no spans")
			}

			// The exact counters say which layers the workload works.
			hit := rep.PerLayer["core.reuse_hit_share"].Value
			switch {
			case w.static && hit != 1:
				t.Errorf("static channels: reuse hit share %v, want 1", hit)
			case !w.static && hit != 0:
				t.Errorf("fresh channels: reuse hit share %v, want 0", hit)
			}
			if got := rep.PerLayer["core.active_pes"].Value; got != float64(w.npe) {
				t.Errorf("active PEs %v, want N_PE %d", got, w.npe)
			}
			if rep.PerLayer["fail_share"].Value != 0 {
				t.Errorf("fail_share %v", rep.PerLayer["fail_share"].Value)
			}
			if w.overload {
				o := rep.PerLayer
				sum := o["serve.over.ok_share"].Value + o["serve.over.expired_share"].Value + o["serve.over.rejected_share"].Value
				if sum < 0.999 || sum > 1.001 {
					t.Errorf("overload outcome shares sum to %v, want 1 (no wrong answers, nothing lost)", sum)
				}
			}

			// Every remainder is a named span's self time: the frame's
			// tree must account for the root's whole duration.
			self := selfTimes(spans)
			var rootDur, selfSum int64
			root := spanDetectFrame
			if w.serve {
				root = spanRoundtrip
			}
			inTree := make([]bool, len(spans))
			for i, s := range spans {
				if s.Name == root {
					inTree[i] = true
					rootDur += s.dur()
				} else if s.Parent >= 0 && inTree[s.Parent] {
					inTree[i] = true
				}
				if inTree[i] {
					selfSum += self[i]
				}
			}
			if rootDur == 0 || selfSum != rootDur {
				t.Errorf("self times under %s sum to %d ns, the roots last %d ns", root, selfSum, rootDur)
			}
		})
	}
}

// TestUsersSpreadOverShards checks the ring's user ids route 8/8 onto
// the two shards, so the saturate phase keeps both workers busy.
func TestUsersSpreadOverShards(t *testing.T) {
	w := *findWorkload("serve-static")
	w.frames = 1
	rig, err := newServeRig(&w, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	snap := rig.srv.Metrics()
	if err := rig.close(); err != nil {
		t.Fatal(err)
	}
	for i, sh := range snap.ShardStats {
		if sh.TrackedUsers != w.users/serveShards {
			t.Errorf("shard %d tracks %d users, want %d", i, sh.TrackedUsers, w.users/serveShards)
		}
	}
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json and the program
// naming the same workloads and metrics with the same units, directions
// and bounds.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var doc struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the program's default is %d", doc.RunSeconds, defaultSeconds)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: %+v, program has %q: %q", i, doc.Workloads[i], w.name, w.why)
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(got), len(want))
		}
		for i, d := range want {
			better := "lower"
			if d.higher {
				better = "higher"
			}
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != better {
				t.Errorf("%s %d: %s %s %s, program has %s %s %s", kind, i, g.Name, g.Unit, g.Better, d.name, d.unit, better)
			}
			if bounded && (g.Bound == nil || *g.Bound != d.bound) {
				t.Errorf("%s %s: bound differs from the program's %v", kind, d.name, d.bound)
			}
			if !bounded && g.Bound != nil {
				t.Errorf("%s %s: per-layer metrics carry no bound", kind, d.name)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd, true)
	check("per_layer", doc.PerLayer, perLayer, false)
}
