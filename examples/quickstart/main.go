// Quickstart: detect one 12×12 64-QAM MIMO vector with FlexCore and
// compare the result (and the work done) against exact ML sphere
// decoding and linear MMSE; then a-FlexCore in action (Fig. 10's right
// axis) — the same 64-PE detector prepared on channels of increasing
// difficulty activates only as many processing elements as each
// channel requires.
package main

import (
	"fmt"
	"log"

	"flexcore"
	"flexcore/internal/channel"
	"flexcore/internal/cmatrix"
)

func main() {
	const (
		users = 12
		snrdB = 21.6 // the paper's 64-QAM PER_ML=0.01 operating point
	)
	cons := flexcore.MustConstellation(64)
	sigma2 := flexcore.Sigma2FromSNRdB(snrdB)

	// One channel realisation (e.g. one OFDM subcarrier) and one
	// transmitted symbol vector.
	h := flexcore.Rayleigh(2026, users, users)
	rng := channel.NewRNG(7)
	tx := make([]int, users)
	x := make([]complex128, users)
	for i := range x {
		tx[i] = rng.IntN(cons.Size())
		x[i] = cons.Point(tx[i])
	}
	y := h.MulVec(x)
	channel.AddAWGN(rng, y, sigma2)

	detectors := []flexcore.Detector{
		flexcore.New(cons, flexcore.Options{NPE: 128}),
		flexcore.NewML(cons),
		flexcore.NewMMSE(cons),
	}
	fmt.Printf("transmitted: %v\n\n", tx)
	for _, det := range detectors {
		if err := det.Prepare(h, sigma2); err != nil {
			log.Fatalf("%s: %v", det.Name(), err)
		}
		got := det.Detect(y)
		errs := 0
		for i := range tx {
			if got[i] != tx[i] {
				errs++
			}
		}
		ops := det.OpCount().PerDetection()
		fmt.Printf("%-18s detected %v\n", det.Name(), got)
		fmt.Printf("%-18s stream errors: %d | per-detection: %d real muls, %d tree nodes\n\n",
			"", errs, ops.RealMuls, ops.Nodes)
	}

	// FlexCore's pre-processing is inspectable: the most promising tree
	// paths for this channel, with their model probabilities.
	paths := flexcore.FindPaths(flexcore.SortedQR(h).R, sigma2, cons, 5, 0)
	fmt.Println("five most promising position vectors (rank per level, top level last):")
	for _, p := range paths {
		fmt.Printf("  %v  Pc=%.3g\n", p.Ranks, p.Prob())
	}

	adaptive()
}

// adaptive prints the active-PE count of a-FlexCore (64 PEs, 0.95
// cumulative-probability stop) across channels: linear-detection
// complexity on easy channels, near-ML complexity only when the channel
// demands it (paper §5.1, Fig. 10).
func adaptive() {
	af := flexcore.New(flexcore.MustConstellation(64), flexcore.Options{NPE: 64, Threshold: 0.95})
	fmt.Println()
	fmt.Println("a-FlexCore with 64 available PEs, 0.95 cumulative-probability stop")
	fmt.Println()
	fmt.Printf("%-44s %-10s %s\n", "channel", "SNR (dB)", "active PEs")
	show := func(name string, h *flexcore.Matrix, snrdB float64) {
		if err := af.Prepare(h, flexcore.Sigma2FromSNRdB(snrdB)); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-44s %-10.1f %d\n", name, snrdB, af.ActivePaths())
	}

	// An orthogonal channel at high SNR needs one path — the complexity
	// of linear detection.
	show("identity (orthogonal streams)", cmatrix.Identity(12), 30)
	// Random channels need more as the SNR falls.
	rng := channel.NewRNG(77)
	h := channel.Rayleigh(rng, 12, 12)
	for _, snr := range []float64{30, 24, 21.6, 18, 14} {
		show("12×12 Rayleigh", h, snr)
	}
	// Fewer users than antennas is well conditioned (Fig. 10's 6 users).
	show("6 users × 12 antennas", channel.Rayleigh(rng, 12, 6), 21.6)
	// Two nearly parallel users exhaust the budget.
	bad := channel.Rayleigh(rng, 12, 12)
	for i := 0; i < 12; i++ {
		bad.Set(i, 1, bad.At(i, 0)+0.05*bad.At(i, 1))
	}
	show("12×12 with two nearly-parallel users", bad, 21.6)
}
