package main

// flexbench -json: the hot-path backend acceptance record. Instead of
// the experiment tables, this mode reruns the PR's four reference
// benchmarks in-process (testing.Benchmark) on both kernel backends —
// baseline is the complex128 reference, after is the float32
// structure-of-arrays backend (Options.Backend = soa32) in the same
// tree — and emits the comparison in the BENCH_PR*.json format, e.g.
//
//	flexbench -json -commit $(git rev-parse --short HEAD) -o BENCH_PR6.json
//
// The workloads mirror BenchmarkFlexCoreDetect12x12_64QAM_128 and
// BenchmarkFlexCorePreprocess12x12_64QAM_128 (internal/core),
// BenchmarkTable1 and BenchmarkFig10 (repo root) exactly; Table 1 is a
// pure sphere-decoder kernel with no FlexCore code in the loop, kept as
// the control that non-backend paths are untouched.

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"testing"

	"flexcore"
	"flexcore/internal/channel"
	"flexcore/internal/cmatrix"
	"flexcore/internal/core"
)

type benchRecord struct {
	NsOp     int64  `json:"ns_op"`
	BOp      int64  `json:"b_op"`
	AllocsOp int64  `json:"allocs_op"`
	Note     string `json:"note,omitempty"`
}

type benchReport struct {
	Description    string                 `json:"description"`
	BaselineCommit string                 `json:"baseline_commit"`
	Baseline       map[string]benchRecord `json:"baseline"`
	After          map[string]benchRecord `json:"after"`
	Speedup        map[string]float64     `json:"speedup"`
	Acceptance     map[string]any         `json:"acceptance"`
}

// measure runs one benchmark function to a stable estimate and packs
// the result the way the BENCH_PR*.json records expect.
func measure(f func(b *testing.B)) benchRecord {
	r := testing.Benchmark(f)
	return benchRecord{NsOp: r.NsPerOp(), BOp: r.AllocedBytesPerOp(), AllocsOp: r.AllocsPerOp()}
}

// benchDetect12 is BenchmarkFlexCoreDetect12x12_64QAM_128: steady-state
// Detect on a 12×12 64-QAM Rayleigh channel with N_PE = 128.
func benchDetect12(backend flexcore.Backend) benchRecord {
	rng := channel.NewRNG(208)
	cons := flexcore.MustConstellation(64)
	fc := flexcore.New(cons, flexcore.Options{NPE: 128, Backend: backend})
	sigma2 := channel.Sigma2FromSNRdB(21.6, 1)
	h := channel.Rayleigh(rng, 12, 12)
	if err := fc.Prepare(h, sigma2); err != nil {
		panic(err)
	}
	x := make([]complex128, 12)
	for i := range x {
		x[i] = cons.Point(rng.IntN(cons.Size()))
	}
	y := h.MulVec(x)
	channel.AddAWGN(rng, y, sigma2)
	fc.Detect(y) // build the backend's planes outside the timed loop
	return measure(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			fc.Detect(y)
		}
	})
}

// benchPreprocess12 is BenchmarkFlexCorePreprocess12x12_64QAM_128: the
// pre-processing tree search selecting 128 paths on a 12×12 64-QAM
// model. Both backends run this one search, so the record is a second
// control: its two legs differ by measurement noise only.
func benchPreprocess12() benchRecord {
	rng := channel.NewRNG(209)
	cons := flexcore.MustConstellation(64)
	sigma2 := channel.Sigma2FromSNRdB(21.6, 1)
	h := channel.Rayleigh(rng, 12, 12)
	qr := cmatrix.SortedQR(h, cmatrix.OrderSQRD)
	m := core.NewModel(qr.R, sigma2, cons)
	return measure(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			core.FindPaths(m, 128, 0)
		}
	})
}

// benchTable1 is BenchmarkTable1: one exact depth-first sphere
// detection (16-QAM, 13 dB, 8×8). No FlexCore kernels run here — the
// record is the control that the backend leaves other detectors alone.
func benchTable1() benchRecord {
	cons := flexcore.MustConstellation(16)
	det := flexcore.NewML(cons)
	rng := channel.NewRNG(99)
	h := channel.Rayleigh(rng, 8, 8)
	sigma2 := channel.Sigma2FromSNRdB(13, 1)
	if err := det.Prepare(h, sigma2); err != nil {
		panic(err)
	}
	x := make([]complex128, 8)
	for i := range x {
		x[i] = cons.Point(rng.IntN(cons.Size()))
	}
	y := h.MulVec(x)
	channel.AddAWGN(rng, y, sigma2)
	return measure(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			det.Detect(y)
		}
	})
}

// benchFig10 is BenchmarkFig10: a-FlexCore Prepare+Detect on a 12×12
// indoor-TDL trace channel (N_PE = 64, θ = 0.95) — the combined
// channel-rate plus symbol-rate unit the backend accelerates end to
// end.
func benchFig10(backend flexcore.Backend) benchRecord {
	cons := flexcore.MustConstellation(64)
	rng := channel.NewRNG(10)
	sigma2 := channel.Sigma2FromSNRdB(21.6, 1)
	det := flexcore.New(cons, flexcore.Options{NPE: 64, Threshold: 0.95, Backend: backend})
	hs := channel.FreqSelective(rng, 12, 12, []int{1, 9, 17, 25}, channel.DefaultIndoorTDL)
	x := make([]complex128, 12)
	for i := range x {
		x[i] = cons.Point(rng.IntN(64))
	}
	y := hs[0].MulVec(x)
	channel.AddAWGN(rng, y, sigma2)
	return measure(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := det.Prepare(hs[i%len(hs)], sigma2); err != nil {
				panic(err)
			}
			det.Detect(y)
		}
	})
}

func round2(x float64) float64 { return math.Round(x*100) / 100 }

// runJSONBench measures every benchmark on both backends and writes the
// report.
func runJSONBench(w io.Writer, commit string) error {
	const (
		nameDetect  = "BenchmarkFlexCoreDetect12x12_64QAM_128"
		namePrep    = "BenchmarkFlexCorePreprocess12x12_64QAM_128"
		nameTable1  = "BenchmarkTable1"
		nameFig10   = "BenchmarkFig10"
		controlNote = "control: exact sphere decoder, no FlexCore kernels in the loop — the backend must not move this"
		prepNote    = "control: the pre-processing search is shared by both backends — parity expected"
	)
	baseline := map[string]benchRecord{
		nameDetect: benchDetect12(flexcore.BackendComplex128),
		namePrep:   benchPreprocess12(),
		nameTable1: benchTable1(),
		nameFig10:  benchFig10(flexcore.BackendComplex128),
	}
	after := map[string]benchRecord{
		nameDetect: benchDetect12(flexcore.BackendSoA32),
		namePrep:   benchPreprocess12(),
		nameTable1: benchTable1(),
		nameFig10:  benchFig10(flexcore.BackendSoA32),
	}
	for name, note := range map[string]string{nameTable1: controlNote, namePrep: prepNote} {
		b, a := baseline[name], after[name]
		b.Note, a.Note = note, note
		baseline[name], after[name] = b, a
	}
	f := after[nameFig10]
	f.Note = "near-parity expected: the unit is dominated by the sorted QR (complex128 on both backends) and the θ=0.95 early stop leaves only a handful of paths of kernel work"
	after[nameFig10] = f

	detectSpeed := float64(baseline[nameDetect].NsOp) / float64(after[nameDetect].NsOp)
	prepSpeed := float64(baseline[namePrep].NsOp) / float64(after[namePrep].NsOp)
	report := benchReport{
		Description: "float32 SoA kernel backend, complex128 vs soa32 in the same tree. Detect: steady-state 12x12 64-QAM N_PE=128 (BenchmarkFlexCoreDetect12x12_64QAM_128); Preprocess: 128-path tree search on the matching model (BenchmarkFlexCorePreprocess12x12_64QAM_128); Fig10: a-FlexCore Prepare+Detect on the indoor-TDL trace; Table1 is the no-FlexCore control. " +
			"Generated by `flexbench -json`; single-core container, Intel Xeon @ 2.10GHz, go1.24.",
		BaselineCommit: commit,
		Baseline:       baseline,
		After:          after,
		Speedup: map[string]float64{
			"detect_12x12_64qam_128":     round2(detectSpeed),
			"preprocess_12x12_64qam_128": round2(prepSpeed),
			"fig10_prepare_detect":       round2(float64(baseline[nameFig10].NsOp) / float64(after[nameFig10].NsOp)),
			"table1_control":             round2(float64(baseline[nameTable1].NsOp) / float64(after[nameTable1].NsOp)),
		},
		Acceptance: map[string]any{
			"detect_speedup_target":   2.0,
			"detect_speedup_measured": round2(detectSpeed),
			"note":                    "target from ISSUE 6: soa32 must be >= 2x on the Detect benchmark (the pre-processing search it also named is shared by both backends since PR 16); decisions are pinned to complex128 by internal/conformance (TestSoA32MatchesGoldenFlexCoreDecisions) so the speedup is not bought with accuracy",
		},
	}
	raw, err := json.MarshalIndent(&report, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", raw)
	return err
}
