package experiments

import (
	"fmt"
	"io"

	"flexcore/internal/channel"
	"flexcore/internal/constellation"
	"flexcore/internal/core"
	"flexcore/internal/detector"
	"flexcore/internal/ofdm"
	"flexcore/internal/phy"
)

// Fig10 regenerates the paper's Fig. 10: network throughput of FlexCore
// (64 PEs), a-FlexCore (64 PEs, 0.95 threshold), Geosphere (exact ML)
// and MMSE as six to twelve users transmit 64-QAM to a 12-antenna AP,
// plus a-FlexCore's mean number of activated processing elements. The
// SNR is fixed at the 12-user PER_ML = 0.01 operating point, and the
// channels come from a synthesized trace set (the paper's trace-driven
// 12×12 methodology).
func Fig10(cfg Config, w io.Writer) (*Table, error) {
	cons := constellation.MustNew(64)
	const apAntennas = 12

	// One trace set serves every user count (users are a column subset,
	// like scheduling a subset of the measured users).
	sc := make([]int, subcarriers)
	idx := ofdm.DataSubcarrierIndices()
	for i := range sc {
		sc[i] = idx[i*len(idx)/len(sc)]
	}
	traces, err := channel.Synthesize(channel.TraceConfig{
		Seed:          cfg.Seed + 1000,
		Users:         apAntennas,
		APAntennas:    apAntennas,
		Subcarriers:   sc,
		Drops:         max(cfg.packets(), 8),
		APCorrelation: 0.3,
		SNRSpreadDB:   3,
	})
	if err != nil {
		return nil, err
	}

	linkFor := func(users int) phy.LinkConfig {
		return phy.LinkConfig{
			Users:         users,
			APAntennas:    apAntennas,
			Constellation: cons,
			Subcarriers:   subcarriers,
			OFDMSymbols:   cfg.ofdmSymbols(),
		}
	}

	// Calibrate at the full 12-user load on the trace channels.
	link12 := linkFor(apAntennas)
	snr, perML, err := phy.CalibrateSNR(phy.CalibrationConfig{
		Link:       link12,
		TargetPER:  0.01,
		Packets:    cfg.calPackets(),
		Seed:       cfg.Seed + 1001,
		LoDB:       10,
		HiDB:       40,
		Iterations: cfg.calIterations(),
		MLMaxNodes: cfg.mlMaxNodesFor(link12),
		Channels:   &phy.TraceProvider{Set: traces},
		Workers:    cfg.Workers,
	})
	if err != nil {
		return nil, err
	}

	t := &Table{
		Title:  fmt.Sprintf("Fig. 10 — 64-QAM, 12-antenna AP, SNR %.1f dB (12-user PER_ML target 0.01, measured %.3f)", snr, perML),
		Header: []string{"Users", "Geosphere/ML (Mbit/s)", "FlexCore-64 (Mbit/s)", "a-FlexCore (Mbit/s)", "MMSE (Mbit/s)", "a-FlexCore active PEs"},
	}
	userCounts := []int{6, 8, 10, 12}
	if !cfg.Quick {
		userCounts = []int{6, 7, 8, 9, 10, 11, 12}
	}
	for _, users := range userCounts {
		sub, err := traces.UserSubset(users)
		if err != nil {
			return nil, err
		}
		provider := &phy.TraceProvider{Set: sub}
		link := linkFor(users)
		run := func(newDet func() detector.Detector) (float64, float64, error) {
			res, err := phy.Run(phy.SimConfig{
				Link: link, SNRdB: snr, Packets: cfg.packets(),
				Seed: cfg.Seed + uint64(users), DetectorFactory: newDet,
				Workers: cfg.Workers, Channels: provider,
			})
			if err != nil {
				return 0, 0, err
			}
			return res.ThroughputBps / 1e6, res.AvgActivePEs, nil
		}
		mlT, _, err := run(func() detector.Detector {
			ml := detector.NewSphere(cons)
			ml.MaxNodes = cfg.mlMaxNodesFor(link)
			return ml
		})
		if err != nil {
			return nil, err
		}
		fcT, _, err := run(func() detector.Detector {
			return core.New(cons, core.Options{NPE: 64})
		})
		if err != nil {
			return nil, err
		}
		afT, active, err := run(func() detector.Detector {
			return core.New(cons, core.Options{NPE: 64, Threshold: 0.95})
		})
		if err != nil {
			return nil, err
		}
		mmseT, _, err := run(func() detector.Detector { return detector.NewMMSE(cons) })
		if err != nil {
			return nil, err
		}
		t.Add(d(int64(users)), f1(mlT), f1(fcT), f1(afT), f1(mmseT), f1(active))
	}
	t.Notes = append(t.Notes,
		"expected shape: MMSE near-ML only for users ≪ antennas; FlexCore tracks ML across loads; a-FlexCore's active-PE count collapses toward 1 on easy channels and grows toward the full load at 12 users")
	if w != nil {
		t.Fprint(w)
	}
	return t, nil
}
