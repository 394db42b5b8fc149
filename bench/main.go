// Command bench is the repository's one layered, re-runnable benchmark
// (see README.md in this directory): four fixed workloads, the
// end-to-end metrics a user of the detector or the service sees
// measured with tracing off, and a second, traced pass per workload
// that times every layer from outside through its public entry points.
//
//	go run ./bench                              every workload, both passes
//	go run ./bench -workload serve-static -trace 0 -seed 7 -seconds 24
//	go run ./bench -compare a.json b.json
//
// With -workload it prints, as the last line of standard output, one
// JSON object {"correct", "attempted", "failed", "metrics"} holding the
// end-to-end metrics (-trace 0) or the per-layer metrics (-trace 1).
// It exits non-zero when any response differs from the offline
// reference.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// metricValue is one metric as written to the results file and the
// final JSON line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Windows are the per-window (setup_s: per-repeat) values Value is
	// the median of; -compare judges their spread.
	Windows []float64 `json:"windows,omitempty"`
}

// workloadReport is one workload's part of the results file.
type workloadReport struct {
	Name      string                 `json:"name"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	EndToEnd  map[string]metricValue `json:"end_to_end,omitempty"`
	PerLayer  map[string]metricValue `json:"per_layer,omitempty"`
}

// resultsFile is what -out writes and -compare reads.
type resultsFile struct {
	Host struct {
		NumCPU     int    `json:"nproc"`
		GOMAXPROCS int    `json:"gomaxprocs"`
		GoVersion  string `json:"go_version"`
		OSArch     string `json:"os_arch"`
	} `json:"host"`
	Seed      uint64           `json:"seed"`
	Seconds   float64          `json:"seconds"`
	Workloads []workloadReport `json:"workloads"`
}

// defaultSeconds is BENCHMARK.json's run_seconds: the timed budget of
// one pass over one workload.
const defaultSeconds = 24

func main() {
	name := flag.String("workload", "", "run one workload (default: all four)")
	seed := flag.Uint64("seed", 1, "workload seed: the same seed gives the same frames")
	seconds := flag.Float64("seconds", defaultSeconds, "timed budget of one pass over one workload")
	trace := flag.Int("trace", -1, "0: end-to-end pass only, 1: traced per-layer pass only (default: both)")
	quick := flag.Bool("quick", false, "smoke run: about a second per workload on shrunken rings; the numbers mean nothing")
	out := flag.String("out", "", "directory for results.json and trace-<workload>.json (default with no -workload: .bench_out)")
	compare := flag.Bool("compare", false, "compare two results files: bench -compare a.json b.json")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatalf("-compare takes two results files")
		}
		worse, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatalf("%v", err)
		}
		if worse {
			os.Exit(1)
		}
		return
	}

	run := workloads
	if *name != "" {
		w := findWorkload(*name)
		if w == nil {
			fatalf("unknown workload %q", *name)
		}
		run = []workload{*w}
	} else if *out == "" {
		*out = ".bench_out"
	}
	if *quick {
		*seconds = 1
	}
	if *seconds <= 0 {
		fatalf("-seconds must be positive")
	}

	var file resultsFile
	file.Host.NumCPU, file.Host.GOMAXPROCS = runtime.NumCPU(), runtime.GOMAXPROCS(0)
	file.Host.GoVersion, file.Host.OSArch = runtime.Version(), runtime.GOOS+"/"+runtime.GOARCH
	file.Seed, file.Seconds = *seed, *seconds
	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			fatalf("%v", err)
		}
	}

	correct := true
	for i := range run {
		w := run[i]
		if *quick {
			w = w.shrunk()
		}
		rep, spans, err := runWorkload(&w, *seed, *seconds, *trace)
		if err != nil {
			fatalf("%s: %v", w.name, err)
		}
		printReport(rep)
		file.Workloads = append(file.Workloads, *rep)
		correct = correct && rep.Correct
		if *out != "" && spans != nil {
			if err := writeJSON(filepath.Join(*out, "trace-"+w.name+".json"), spans); err != nil {
				fatalf("%v", err)
			}
		}
		printFinalLine(rep, *trace)
	}
	if *out != "" {
		if err := writeJSON(filepath.Join(*out, "results.json"), file); err != nil {
			fatalf("%v", err)
		}
	}
	if !correct {
		fmt.Fprintln(os.Stderr, "bench: responses differed from the offline reference")
		os.Exit(1)
	}
}

// shrunk is the workload on a small ring, for the smoke run, with the
// paced rates cut to what a race-detector build on a busy host serves
// without refusing a frame.
func (w workload) shrunk() workload {
	if w.users > 4 {
		w.users = 4
	}
	if w.frames > 3 {
		w.frames = 3
	}
	for i := range w.rates {
		w.rates[i] /= 20
	}
	return w
}

// runWorkload runs the passes trace selects (-1: both) and folds them
// into one report. spans is the traced pass's trace, nil without one.
func runWorkload(w *workload, seed uint64, seconds float64, trace int) (*workloadReport, []span, error) {
	rep := &workloadReport{Name: w.name}
	var spans []span
	if trace != 1 {
		pass := frameEndToEnd
		if w.serve {
			pass = serveEndToEnd
		}
		res, err := pass(w, seed, seconds)
		if err != nil {
			return nil, nil, err
		}
		rep.Attempted += res.attempted
		rep.Failed += res.failed
		rep.EndToEnd = map[string]metricValue{}
		for _, d := range endToEnd {
			s := res.metrics[d.name]
			rep.EndToEnd[d.name] = metricValue{Value: s.value, Unit: d.unit, Windows: s.windows}
		}

	}
	if trace != 0 {
		pass := frameLayers
		if w.serve {
			pass = serveLayers
		}
		tr := newTracer(time.Now(), 1<<18)
		res, err := pass(w, seed, seconds, tr)
		if err != nil {
			return nil, nil, err
		}
		rep.Attempted += res.attempted
		rep.Failed += res.failed
		rep.PerLayer = map[string]metricValue{}
		for _, d := range perLayer {
			rep.PerLayer[d.name] = metricValue{Value: res.metrics[d.name].value, Unit: d.unit}
		}
		spans = tr.spans
	}
	rep.Correct = rep.Failed == 0
	return rep, spans, nil
}

// printReport prints every metric of the report by name with its unit.
func printReport(rep *workloadReport) {
	fmt.Printf("%s: attempted %d, failed %d\n", rep.Name, rep.Attempted, rep.Failed)
	for _, d := range endToEnd {
		if v, ok := rep.EndToEnd[d.name]; ok {
			fmt.Printf("  %-14s %-34s %14.6g %s\n", rep.Name, d.name, v.Value, v.Unit)
		}
	}
	for _, d := range perLayer {
		if v, ok := rep.PerLayer[d.name]; ok {
			fmt.Printf("  %-14s %-34s %14.6g %s\n", rep.Name, d.name, v.Value, v.Unit)
		}
	}
}

// printFinalLine prints the one-object summary the benchmark contract
// reads off the last line of standard output.
func printFinalLine(rep *workloadReport, trace int) {
	metrics := map[string]metricValue{}
	if trace != 1 {
		for name, v := range rep.EndToEnd {
			metrics[name] = metricValue{Value: v.Value, Unit: v.Unit}
		}
	}
	if trace != 0 {
		for name, v := range rep.PerLayer {
			metrics[name] = v
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{rep.Correct, rep.Attempted, rep.Failed, metrics})
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(line))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(1)
}
