// Command flexbench regenerates the FlexCore paper's evaluation tables
// and figures (DESIGN.md §4 maps names to paper artefacts).
//
// Usage:
//
//	flexbench [-quick] [-seed N] [-o file] all
//	flexbench [-quick] [-seed N] [-o file] table1|table2|table3|fig9|fig10|fig11|fig12|fig13|fig14
//
// -quick runs reduced Monte-Carlo settings (minutes); the default runs
// the full settings used for EXPERIMENTS.md. Speed is measured by
// `go run ./bench`, not here.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"flexcore/internal/experiments"
)

func main() {
	quick := flag.Bool("quick", false, "reduced Monte-Carlo settings")
	seed := flag.Uint64("seed", 42, "experiment seed (all runs are deterministic)")
	workers := flag.Int("workers", 0, "packet-level simulation parallelism (0 = all cores; results are identical for any value)")
	out := flag.String("o", "", "write output to a file as well as stdout")
	csvDir := flag.String("csvdir", "", "also write each table as a CSV file into this directory")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: flexbench [-quick] [-seed N] [-o file] {all|%s}\n", joinNames())
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	name := flag.Arg(0)
	cfg := experiments.Config{Quick: *quick, Seed: *seed, Workers: *workers}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "flexbench: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "flexbench: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "flexbench: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "flexbench: %v\n", err)
			}
		}()
	}

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "flexbench: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		w = io.MultiWriter(os.Stdout, f)
	}

	start := time.Now()
	names := []string{name}
	if name == "all" {
		names = experiments.Names
	}
	for _, n := range names {
		fmt.Fprintf(w, "\n––––– %s –––––\n", n)
		tables, err := experiments.RunTables(n, cfg, w)
		if err != nil {
			fmt.Fprintf(os.Stderr, "flexbench: %s: %v\n", n, err)
			os.Exit(1)
		}
		if *csvDir != "" {
			if err := os.MkdirAll(*csvDir, 0o755); err != nil {
				fmt.Fprintf(os.Stderr, "flexbench: %v\n", err)
				os.Exit(1)
			}
			for i, t := range tables {
				path := filepath.Join(*csvDir, fmt.Sprintf("%s_%d.csv", n, i))
				f, err := os.Create(path)
				if err != nil {
					fmt.Fprintf(os.Stderr, "flexbench: %v\n", err)
					os.Exit(1)
				}
				t.CSV(f)
				f.Close()
			}
		}
	}
	fmt.Fprintf(w, "\ncompleted in %s (quick=%v seed=%d)\n", time.Since(start).Round(time.Millisecond), *quick, *seed)
}

func joinNames() string {
	s := ""
	for i, n := range experiments.Names {
		if i > 0 {
			s += "|"
		}
		s += n
	}
	return s
}
