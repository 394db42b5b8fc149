package experiments

import (
	"fmt"
	"io"

	"flexcore/internal/constellation"
	"flexcore/internal/core"
	"flexcore/internal/detector"
	"flexcore/internal/phy"
)

// mlMaxNodes caps the exact sphere decoder's per-vector search in the
// link-level experiments; at the calibrated (high) operating SNRs the cap
// rarely binds, and it keeps worst-case channels from stalling the
// harness. The paper's own reference (Geosphere) is likewise a practical
// depth-first decoder.
func (c Config) mlMaxNodesFor(link phy.LinkConfig) int64 {
	// 12×12 64-QAM needs a much deeper search before the best-found leaf
	// is reliably (near-)ML; smaller systems get a tighter cap.
	hard := link.Users >= 12 && link.Constellation.Size() >= 64
	if c.Quick {
		if hard {
			return 30000
		}
		return 8000
	}
	if hard {
		return 100000
	}
	return 50000
}

// fig9Scenario is one panel of Fig. 9.
type fig9Scenario struct {
	qam       int
	nt        int
	targetPER float64
}

// Fig9Scenarios lists the paper's eight panels.
var Fig9Scenarios = []fig9Scenario{
	{16, 8, 0.1}, {16, 8, 0.01}, {64, 8, 0.1}, {64, 8, 0.01},
	{16, 12, 0.1}, {16, 12, 0.01}, {64, 12, 0.1}, {64, 12, 0.01},
}

// npeSweep returns the processing-element axis.
func (c Config) npeSweep(qam int) []int {
	if c.Quick {
		return []int{1, 4, 16, 64, 128}
	}
	return []int{1, 2, 4, 8, 16, 32, 64, 128, 196, 256}
}

// linkFor builds the link geometry of a scenario.
func (c Config) linkFor(qam, nt int) phy.LinkConfig {
	return phy.LinkConfig{
		Users:         nt,
		APAntennas:    nt,
		Constellation: constellation.MustNew(qam),
		Subcarriers:   subcarriers,
		OFDMSymbols:   c.ofdmSymbols(),
	}
}

// apCorrelation is the receive-side correlation of the Fig. 9/12
// channels: the paper's AP packs its antennas ≈6 cm apart, and the
// resulting correlation (together with its 500-kByte packets) is what
// places the PER_ML anchors in the 13–22 dB band the paper reports.
const apCorrelation = 0.6

// flatProvider returns the block-fading channel source the Fig. 9/12
// experiments run on (see FlatProvider for the rationale).
func (c Config) flatProvider(link phy.LinkConfig, seed uint64) phy.ChannelProvider {
	return &phy.FlatProvider{
		Seed:          seed ^ 0xabcdef12,
		Users:         link.Users,
		APAntennas:    link.APAntennas,
		Subcarriers:   link.Subcarriers,
		APCorrelation: apCorrelation,
	}
}

// calibrate anchors the scenario SNR at the paper's PER_ML target.
func (c Config) calibrate(link phy.LinkConfig, targetPER float64, seed uint64) (float64, float64, error) {
	lo, hi := 4.0, 32.0
	if link.Constellation.Size() == 64 {
		lo, hi = 10.0, 40.0
	}
	return phy.CalibrateSNR(phy.CalibrationConfig{
		Link:       link,
		TargetPER:  targetPER,
		Packets:    c.calPackets(),
		Seed:       seed,
		LoDB:       lo,
		HiDB:       hi,
		Iterations: c.calIterations(),
		MLMaxNodes: c.mlMaxNodesFor(link),
		Channels:   c.flatProvider(link, seed),
		Workers:    c.Workers,
	})
}

// measure runs one link-level point and returns throughput (Mbit/s), PER
// and mean active processing elements. newDet builds one detector per
// simulation worker (results are bit-identical for every worker count).
func (c Config) measure(link phy.LinkConfig, newDet func() detector.Detector, snr float64, seed uint64) (tputMbps, per, activePEs float64, err error) {
	res, err := phy.Run(phy.SimConfig{
		Link:            link,
		SNRdB:           snr,
		Packets:         c.packets(),
		Seed:            seed,
		DetectorFactory: newDet,
		Workers:         c.Workers,
		Channels:        c.flatProvider(link, seed),
	})
	if err != nil {
		return 0, 0, 0, err
	}
	return res.ThroughputBps / 1e6, res.PER, res.AvgActivePEs, nil
}

// isPowerOf reports whether v = base^k for some k ≥ 1.
func isPowerOf(v, base int) (int, bool) {
	k := 0
	for v > 1 && v%base == 0 {
		v /= base
		k++
	}
	if v == 1 && k >= 1 {
		return k, true
	}
	return 0, false
}

// Fig9 regenerates the paper's Fig. 9: achievable network throughput of
// FlexCore, FCSD and the trellis detector [50] as a function of the
// available processing elements, against the ML and MMSE bounds, at SNRs
// where PER_ML ∈ {0.1, 0.01}. Panels is a filter over Fig9Scenarios
// indices (nil = all).
func Fig9(cfg Config, w io.Writer, panels []int) ([]*Table, error) {
	if panels == nil {
		panels = make([]int, len(Fig9Scenarios))
		for i := range panels {
			panels[i] = i
		}
	}
	var out []*Table
	for _, pi := range panels {
		sc := Fig9Scenarios[pi]
		link := cfg.linkFor(sc.qam, sc.nt)
		seed := cfg.Seed + uint64(100+pi)
		snr, perML, err := cfg.calibrate(link, sc.targetPER, seed)
		if err != nil {
			return nil, fmt.Errorf("fig9 panel %d calibrate: %w", pi, err)
		}
		cons := link.Constellation

		newML := func() detector.Detector {
			ml := detector.NewSphere(cons)
			ml.MaxNodes = cfg.mlMaxNodesFor(link)
			return ml
		}
		mlT, mlPER, _, err := cfg.measure(link, newML, snr, seed)
		if err != nil {
			return nil, err
		}
		mmseT, _, _, err := cfg.measure(link, func() detector.Detector { return detector.NewMMSE(cons) }, snr, seed)
		if err != nil {
			return nil, err
		}

		t := &Table{
			Title: fmt.Sprintf("Fig. 9 — %d-QAM %d×%d, SNR %.1f dB (PER_ML target %.2f, measured %.3f)",
				sc.qam, sc.nt, sc.nt, snr, sc.targetPER, perML),
			Header: []string{"NPE", "FlexCore (Mbit/s)", "FCSD (Mbit/s)", "Trellis[50] (Mbit/s)"},
		}
		for _, npe := range cfg.npeSweep(sc.qam) {
			npe := npe
			fcT, _, _, err := cfg.measure(link, func() detector.Detector {
				return core.New(cons, core.Options{NPE: npe})
			}, snr, seed)
			if err != nil {
				return nil, err
			}
			fcsdCell, trellisCell := "×", "×"
			if l, ok := isPowerOf(npe, cons.Size()); ok && l <= sc.nt {
				l := l
				v, _, _, err := cfg.measure(link, func() detector.Detector {
					return detector.NewFCSD(cons, l)
				}, snr, seed)
				if err != nil {
					return nil, err
				}
				fcsdCell = f1(v)
			}
			if npe == cons.Size() {
				v, _, _, err := cfg.measure(link, func() detector.Detector {
					return detector.NewTrellis(cons)
				}, snr, seed)
				if err != nil {
					return nil, err
				}
				trellisCell = f1(v)
			}
			t.Add(d(int64(npe)), f1(fcT), fcsdCell, trellisCell)
		}
		t.Notes = append(t.Notes,
			fmt.Sprintf("ML bound %.1f Mbit/s (PER %.3f); MMSE %.1f Mbit/s", mlT, mlPER, mmseT),
			"× = the detector cannot use that processing-element count (FCSD needs |Q|^L, trellis exactly |Q|)")
		if w != nil {
			t.Fprint(w)
		}
		out = append(out, t)
	}
	return out, nil
}
