package experiments

import (
	"fmt"
	"io"

	"flexcore/internal/constellation"
	"flexcore/internal/core"
	"flexcore/internal/detector"
	"flexcore/internal/phy"
	"flexcore/internal/platform/gpu"
	"flexcore/internal/platform/lte"
)

// Fig12 regenerates the paper's Fig. 12: the SNR loss relative to ML that
// FlexCore, the FCSD and SIC incur when each is restricted to the number
// of sphere-decoder paths the GPU can evaluate within an LTE timeslot, as
// a function of the LTE bandwidth mode (64-QAM, Nt ∈ {8, 12}). SIC is a
// single-path FlexCore; the FCSD is feasible only where |Q| paths fit.
func Fig12(cfg Config, w io.Writer) ([]*Table, error) {
	cons := constellation.MustNew(64)
	device := gpu.GTX970
	modes := lte.Modes
	targets := []float64{0.1, 0.01}
	if cfg.Quick {
		modes = []lte.Mode{lte.Modes[0], lte.Modes[2], lte.Modes[5]}
		targets = []float64{0.1}
	}
	var out []*Table
	for _, nt := range []int{8, 12} {
		link := cfg.linkFor(64, nt)
		for _, target := range targets {
			seed := cfg.Seed + uint64(2000+nt*10) + uint64(target*100)
			// ML anchor SNR for the loss reference.
			mlSNR, _, err := cfg.calibrate(link, target, seed)
			if err != nil {
				return nil, err
			}
			// SNR at which a given detector hits the same PER target.
			snrFor := func(mk func() detector.Detector) (float64, error) {
				snr, _, err := phy.CalibrateSNR(phy.CalibrationConfig{
					Link:            link,
					TargetPER:       target,
					Packets:         cfg.calPackets(),
					Seed:            seed,
					LoDB:            10,
					HiDB:            48,
					Iterations:      cfg.calIterations(),
					DetectorFactory: mk,
					Channels:        cfg.flatProvider(link, seed),
					Workers:         cfg.Workers,
				})
				return snr, err
			}
			sicSNR, err := snrFor(func() detector.Detector {
				return core.New(cons, core.Options{NPE: 1})
			})
			if err != nil {
				return nil, err
			}
			t := &Table{
				Title: fmt.Sprintf("Fig. 12 — SNR loss vs ML across LTE modes (64-QAM, %d×%d, PER_ML=%.2f, ML at %.1f dB)",
					nt, nt, target, mlSNR),
				Header: []string{"LTE mode", "FlexCore paths", "FlexCore loss (dB)", "FCSD loss (dB)", "SIC loss (dB)"},
			}
			for _, mode := range modes {
				paths := mode.MaxPaths(device, nt, true)
				flexCell := "×"
				if paths >= 1 {
					snr, err := snrFor(func() detector.Detector {
						return core.New(cons, core.Options{NPE: paths})
					})
					if err != nil {
						return nil, err
					}
					flexCell = f1(snr - mlSNR)
				}
				fcsdCell := "×"
				if mode.SupportsFCSD(device, nt, 64, 1) {
					snr, err := snrFor(func() detector.Detector {
						return detector.NewFCSD(cons, 1)
					})
					if err != nil {
						return nil, err
					}
					fcsdCell = f1(snr - mlSNR)
				}
				t.Add(mode.Name, d(int64(paths)), flexCell, fcsdCell, f1(sicSNR-mlSNR))
			}
			t.Notes = append(t.Notes,
				"paper: FlexCore supports every mode with graceful loss (0.2–2.1 dB at Nt=8); the FCSD fits only the narrowest mode; SIC loses up to ≈11.9 dB",
				"path budgets from the calibrated GPU model; losses from link-level PER bisection",
				"a small negative loss means the node-capped ML anchor fell below a many-path FlexCore on hard 12×12 instances (the full configuration deepens the cap)")
			if w != nil {
				t.Fprint(w)
			}
			out = append(out, t)
		}
	}
	return out, nil
}
