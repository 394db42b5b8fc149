// Per-table and per-figure benchmarks: each benchmark exercises the
// computational kernel behind one evaluation artefact of the paper, so
// `go test -bench=.` profiles every reproduced experiment. The full
// tables themselves are produced by cmd/flexbench (see DESIGN.md §4).
// The Ablation* benchmarks measure the design choices DESIGN.md calls
// out (deactivation policy, QR ordering, worker parallelism).
package flexcore_test

import (
	"fmt"
	"runtime"
	"testing"

	"flexcore"
	"flexcore/internal/channel"
	"flexcore/internal/cmatrix"
	"flexcore/internal/constellation"
	"flexcore/internal/core"
	"flexcore/internal/detector"
	"flexcore/internal/experiments"
	"flexcore/internal/phy"
	"flexcore/internal/platform/fpga"
	"flexcore/internal/platform/gpu"
	"flexcore/internal/platform/lte"
)

// detectSetup prepares a detector on a fresh channel and returns a
// received vector for it.
func detectSetup(b *testing.B, det flexcore.Detector, qam, nt int, snrdB float64, rho float64) []complex128 {
	b.Helper()
	cons := flexcore.MustConstellation(qam)
	rng := channel.NewRNG(99)
	h, err := channel.CorrelatedRayleigh(rng, nt, nt, rho)
	if err != nil {
		b.Fatal(err)
	}
	sigma2 := channel.Sigma2FromSNRdB(snrdB, 1)
	if err := det.Prepare(h, sigma2); err != nil {
		b.Fatal(err)
	}
	x := make([]complex128, nt)
	for i := range x {
		x[i] = cons.Point(rng.IntN(cons.Size()))
	}
	y := h.MulVec(x)
	channel.AddAWGN(rng, y, sigma2)
	return y
}

// BenchmarkTable1 profiles the kernel Table 1 measures: one exact
// depth-first sphere detection at the table's operating point (16-QAM,
// 13 dB, 8×8 Rayleigh).
func BenchmarkTable1(b *testing.B) {
	det := flexcore.NewML(flexcore.MustConstellation(16))
	y := detectSetup(b, det, 16, 8, 13, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		det.Detect(y)
	}
}

// BenchmarkTable2 profiles FlexCore's pre-processing tree search at
// Table 2's heaviest cell (12×12, N_PE = 128, 64-QAM).
func BenchmarkTable2(b *testing.B) {
	cons := flexcore.MustConstellation(64)
	h := flexcore.Rayleigh(3, 12, 12)
	qr := cmatrix.SortedQR(h, cmatrix.OrderSQRD)
	model := core.NewModel(qr.R, channel.Sigma2FromSNRdB(21.6, 1), cons)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.FindPaths(model, 128, 0)
	}
}

// BenchmarkTable3 profiles the FPGA cost-model evaluation behind Table 3.
func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = fpga.AreaDelayOverhead(fpga.FlexCorePE12, fpga.FCSDPE12)
		_ = fpga.XCVU440.MaxInstances(fpga.FlexCorePE12)
	}
}

// BenchmarkFig9 profiles one Fig. 9 measurement unit: a full coded
// link-level packet through FlexCore (16-QAM, 8×8, 128 PEs).
func BenchmarkFig9(b *testing.B) {
	cons := flexcore.MustConstellation(16)
	link := flexcore.LinkConfig{
		Users: 8, APAntennas: 8, Constellation: cons,
		Subcarriers: 8, OFDMSymbols: 8,
	}
	det := flexcore.New(cons, flexcore.Options{NPE: 128})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := flexcore.RunLink(flexcore.SimConfig{
			Link: link, SNRdB: 12, Packets: 1, Seed: uint64(i),
			DetectorFactory: func() flexcore.Detector { return det },
			Channels:        &phy.FlatProvider{Seed: uint64(i), Users: 8, APAntennas: 8, Subcarriers: 8, APCorrelation: 0.6},
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig10 profiles the Fig. 10 unit: a-FlexCore prepare+detect on
// a 12×12 trace-style channel (the prepare includes pre-processing).
func BenchmarkFig10(b *testing.B) {
	cons := flexcore.MustConstellation(64)
	rng := channel.NewRNG(10)
	sigma2 := channel.Sigma2FromSNRdB(21.6, 1)
	det := flexcore.New(cons, flexcore.Options{NPE: 64, Threshold: 0.95})
	hs := channel.FreqSelective(rng, 12, 12, []int{1, 9, 17, 25}, channel.DefaultIndoorTDL)
	x := make([]complex128, 12)
	for i := range x {
		x[i] = cons.Point(rng.IntN(64))
	}
	y := hs[0].MulVec(x)
	channel.AddAWGN(rng, y, sigma2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := det.Prepare(hs[i%len(hs)], sigma2); err != nil {
			b.Fatal(err)
		}
		det.Detect(y)
	}
}

// BenchmarkFig11 profiles the calibrated GPU execution model sweep.
func BenchmarkFig11(b *testing.B) {
	d := gpu.GTX970
	for i := 0; i < b.N; i++ {
		base := gpu.Workload{Vectors: 16384, PathsPerVector: 4096, Levels: 12}
		flex := gpu.Workload{Vectors: 16384, PathsPerVector: 128, Levels: 12, FlexCore: true}
		_ = d.Speedup(base, flex)
		_ = d.CPUTime(base, 8)
	}
}

// BenchmarkFig12 profiles the LTE budget computation (max supported
// paths per mode) plus one SIC detection (FlexCore at N_PE = 1),
// Fig. 12's repeated unit.
func BenchmarkFig12(b *testing.B) {
	det := flexcore.New(flexcore.MustConstellation(64), flexcore.Options{NPE: 1})
	y := detectSetup(b, det, 64, 12, 21.6, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, m := range lte.Modes {
			_ = m.MaxPaths(gpu.GTX970, 12, true)
		}
		det.Detect(y)
	}
}

// BenchmarkFig13 profiles the FPGA energy-efficiency exploration.
func BenchmarkFig13(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, m := range []int{1, 4, 16, 64} {
			_ = fpga.EnergyPerBit(fpga.FlexCorePE12, m, 128, 6)
			_ = fpga.EnergyPerBit(fpga.FCSDPE12, m, 4096, 6)
		}
	}
}

// BenchmarkFig14 profiles the per-level rank measurement unit: slicing a
// noisy observation and ranking the transmitted symbol.
func BenchmarkFig14(b *testing.B) {
	cons := flexcore.MustConstellation(16)
	rng := channel.NewRNG(14)
	sigma2 := channel.Sigma2FromSNRdB(15, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx := rng.IntN(16)
		y := cons.Point(tx) + channel.CN(rng, sigma2)
		_ = cons.ExactKth(y, 1)
	}
}

// --- Ablation benchmarks (design choices called out in DESIGN.md §5) ---

// BenchmarkAblationDeactivation compares the default saturating slicer
// with the paper's literal path-fatal deactivation.
func BenchmarkAblationDeactivation(b *testing.B) {
	for _, mode := range []struct {
		name   string
		strict bool
	}{{"clamped", false}, {"strict", true}} {
		b.Run(mode.name, func(b *testing.B) {
			det := flexcore.New(flexcore.MustConstellation(64), flexcore.Options{NPE: 64, StrictDeactivation: mode.strict})
			y := detectSetup(b, det, 64, 12, 21.6, 0.6)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				det.Detect(y)
			}
		})
	}
}

// BenchmarkAblationOrdering compares the two sorted-QR orderings the
// paper evaluates ([13] SQRD vs [4] FCSD ordering) in FlexCore's
// prepare step.
func BenchmarkAblationOrdering(b *testing.B) {
	h := flexcore.Rayleigh(11, 12, 12)
	for _, ord := range []struct {
		name string
		f    func() *cmatrix.QRResult
	}{
		{"sqrd", func() *cmatrix.QRResult { return cmatrix.SortedQR(h, cmatrix.OrderSQRD) }},
		{"fcsd", func() *cmatrix.QRResult { return cmatrix.SortedQRFCSD(h, 1) }},
		{"householder", func() *cmatrix.QRResult { return cmatrix.QR(h) }},
	} {
		b.Run(ord.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ord.f()
			}
		})
	}
}

// BenchmarkDetectBatch measures the zero-allocation burst entry point
// across path budgets: one call detects a 12-symbol OFDM burst on a
// 12×12 64-QAM channel. Steady state must report 0 allocs/op.
func BenchmarkDetectBatch(b *testing.B) {
	cons := flexcore.MustConstellation(64)
	for _, npe := range []int{64, 512} {
		b.Run(fmt.Sprintf("npe=%d", npe), func(b *testing.B) {
			det := flexcore.New(cons, flexcore.Options{NPE: npe})
			y := detectSetup(b, det, 64, 12, 21.6, 0)
			rng := channel.NewRNG(77)
			ys := make([][]complex128, 12)
			for s := range ys {
				v := make([]complex128, len(y))
				copy(v, y)
				channel.AddAWGN(rng, v, 0.01)
				ys[s] = v
			}
			det.DetectBatch(ys) // warm scratch
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				det.DetectBatch(ys)
			}
		})
	}
}

// BenchmarkRunParallel measures the packet-parallel Monte-Carlo
// simulator end to end (16-QAM 8×8 coded link, FlexCore-64 per worker).
func BenchmarkRunParallel(b *testing.B) {
	cons := flexcore.MustConstellation(16)
	link := flexcore.LinkConfig{
		Users: 8, APAntennas: 8, Constellation: cons,
		Subcarriers: 8, OFDMSymbols: 8,
	}
	workerCounts := []int{1, 4}
	if n := runtime.NumCPU(); n != 1 && n != 4 {
		workerCounts = append(workerCounts, n)
	}
	for _, workers := range workerCounts {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := flexcore.RunLink(flexcore.SimConfig{
					Link: link, SNRdB: 12, Packets: 16, Seed: 9,
					Workers: workers,
					DetectorFactory: func() flexcore.Detector {
						return flexcore.New(cons, flexcore.Options{NPE: 64})
					},
					Channels: &phy.FlatProvider{Seed: 9, Users: 8, APAntennas: 8, Subcarriers: 8, APCorrelation: 0.6},
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationDetectors lines the paper's detectors up on the same
// 8×8 64-QAM instance.
func BenchmarkAblationDetectors(b *testing.B) {
	cons := flexcore.MustConstellation(64)
	dets := []flexcore.Detector{
		flexcore.NewMMSE(cons),
		flexcore.New(cons, flexcore.Options{NPE: 1}), // SIC
		flexcore.New(cons, flexcore.Options{NPE: 64}),
		flexcore.NewFCSD(cons, 1),
		detector.NewTrellis(cons),
		flexcore.NewML(cons),
	}
	for _, det := range dets {
		b.Run(det.Name(), func(b *testing.B) {
			y := detectSetup(b, det, 64, 8, 21.6, 0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				det.Detect(y)
			}
		})
	}
}

// BenchmarkExperimentTable3Quick regenerates the cheapest full table
// end-to-end, validating the harness wiring under the profiler.
func BenchmarkExperimentTable3Quick(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table3(experiments.Config{Quick: true, Seed: 1}, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// benchPrepareSetup builds the PR's frame-prepare reference workload:
// a 48-subcarrier 64-QAM 8×8 indoor-TDL frame at the paper's 21.6 dB
// operating point (BENCH_PR3.json records before/after numbers on it).
func benchPrepareSetup() ([]*cmatrix.Matrix, float64, *constellation.Constellation) {
	cons := flexcore.MustConstellation(64)
	rng := channel.NewRNG(321)
	sc := make([]int, 48)
	for i := range sc {
		sc[i] = i + 1
	}
	hs := channel.FreqSelective(rng, 8, 8, sc, channel.DefaultIndoorTDL)
	return hs, channel.Sigma2FromSNRdB(21.6, 1), cons
}

// BenchmarkPrepareSingle measures one full scalar Prepare (sorted QR +
// model + N_PE=128 tree search) in steady state — allocation-free once
// the detector's pooled arenas are warm.
func BenchmarkPrepareSingle(b *testing.B) {
	hs, sigma2, cons := benchPrepareSetup()
	det := flexcore.New(cons, flexcore.Options{NPE: 128})
	if err := det.Prepare(hs[0], sigma2); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := det.Prepare(hs[i%len(hs)], sigma2); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPrepareCachedRePrepare measures re-preparing an identical
// channel with the coherence cache enabled: the tree search is skipped
// and the steady state performs zero allocations.
func BenchmarkPrepareCachedRePrepare(b *testing.B) {
	hs, sigma2, cons := benchPrepareSetup()
	det := flexcore.New(cons, flexcore.Options{NPE: 128, PathReuse: true})
	for i := 0; i < 2; i++ { // warm: miss, then first hit
		if err := det.Prepare(hs[0], sigma2); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := det.Prepare(hs[0], sigma2); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPrepareFrame measures preparing the whole 48-subcarrier frame
// two ways: the scalar Prepare loop and the PrepareAll pipeline.
func BenchmarkPrepareFrame(b *testing.B) {
	hs, sigma2, cons := benchPrepareSetup()
	b.Run("loop", func(b *testing.B) {
		det := flexcore.New(cons, flexcore.Options{NPE: 128})
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, h := range hs {
				if err := det.Prepare(h, sigma2); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("prepareall", func(b *testing.B) {
		det := flexcore.New(cons, flexcore.Options{NPE: 128})
		if err := det.PrepareAll(hs, sigma2); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := det.PrepareAll(hs, sigma2); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkKthClosest contrasts the two k-th-closest slicer paths the
// conformance LUT property tests relate: the O(1) triangle-LUT lookup
// the paper's detection step uses (Fig. 6) against the O(M log M)
// sort-based exact reference. The gap is the per-path work FlexCore's
// predefined ordering removes from the hot loop.
func BenchmarkKthClosest(b *testing.B) {
	for _, m := range []int{16, 64, 256} {
		cons := flexcore.MustConstellation(m)
		rng := channel.NewRNG(7)
		pts := make([]complex128, 256)
		span := cons.Scale() * float64(cons.Side())
		for i := range pts {
			pts[i] = complex((rng.Float64()*2-1)*span, (rng.Float64()*2-1)*span)
		}
		b.Run(fmt.Sprintf("lut/m=%d", m), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				z := pts[i%len(pts)]
				k := i%m + 1
				cons.KthClosestClamped(z, k)
			}
		})
		b.Run(fmt.Sprintf("sort/m=%d", m), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				z := pts[i%len(pts)]
				k := i%m + 1
				cons.ExactKth(z, k)
			}
		})
	}
}
