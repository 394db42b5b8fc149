package experiments

import (
	"fmt"
	"io"

	"flexcore/internal/channel"
	"flexcore/internal/constellation"
	"flexcore/internal/detector"
	"flexcore/internal/ofdm"
	"flexcore/internal/phy"
)

// Table1 regenerates the paper's Table 1: the floating-point rate a
// single core must sustain to run exact depth-first sphere decoding at
// Wi-Fi line rate (16-QAM, 13 dB SNR, Rayleigh channels), and the
// network throughput the corresponding MIMO size delivers, for 2×2 up to
// 8×8.
func Table1(cfg Config, w io.Writer) (*Table, error) {
	cons := constellation.MustNew(16)
	const snrdB = 13
	sigma2 := channel.Sigma2FromSNRdB(snrdB, 1)
	rng := channel.NewRNG(cfg.Seed + 1)

	t := &Table{
		Title:  "Table 1 — Sphere decoder throughput and single-core compute rate (16-QAM, Rayleigh, 13 dB)",
		Header: []string{"Antennas", "Throughput (Mbit/s)", "Complexity (GFLOPS)", "FLOPs/vector"},
	}
	vectors := cfg.packets() * 40
	if cfg.Quick {
		vectors = 400
	}
	for _, nt := range []int{2, 4, 6, 8} {
		// Measured FLOPs per detected vector via instrumented counters.
		ml := detector.NewSphere(cons)
		x := make([]complex128, nt)
		for v := 0; v < vectors; v++ {
			h := channel.Rayleigh(rng, nt, nt)
			if err := ml.Prepare(h, sigma2); err != nil {
				return nil, err
			}
			for i := range x {
				x[i] = cons.Point(rng.IntN(cons.Size()))
			}
			y := h.MulVec(x)
			channel.AddAWGN(rng, y, sigma2)
			ml.Detect(y)
		}
		ops := ml.OpCount().PerDetection()
		gflops := float64(ops.FLOPs) * ofdm.VectorsPerSecond() / 1e9

		// Network throughput at the same operating point from a coded
		// link-level run.
		res, err := phy.Run(phy.SimConfig{
			Link: phy.LinkConfig{
				Users: nt, APAntennas: nt, Constellation: cons,
				Subcarriers: subcarriers, OFDMSymbols: cfg.ofdmSymbols(),
			},
			SNRdB:           snrdB,
			Packets:         cfg.packets(),
			Seed:            cfg.Seed + uint64(nt),
			DetectorFactory: func() detector.Detector { return detector.NewSphere(cons) },
			Workers:         cfg.Workers,
			Channels:        &phy.IIDProvider{Seed: cfg.Seed + uint64(nt)*7, Users: nt, APAntennas: nt, Subcarriers: subcarriers},
		})
		if err != nil {
			return nil, err
		}
		t.Add(fmt.Sprintf("%d×%d", nt, nt), f1(res.ThroughputBps/1e6), f2(gflops), d(ops.FLOPs))
	}
	t.Notes = append(t.Notes,
		"paper reports 45/100/162/223 Mbit/s and 1.2/13/105/837 GFLOPS; the exponential growth in compute rate with antenna count is the reproduced shape",
		fmt.Sprintf("FLOP rate = measured FLOPs/vector × %.0fM vectors/s (48 data subcarriers × 250k OFDM symbols/s)", ofdm.VectorsPerSecond()/1e6))
	if w != nil {
		t.Fprint(w)
	}
	return t, nil
}
