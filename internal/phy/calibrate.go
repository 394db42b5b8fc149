package phy

import (
	"fmt"

	"flexcore/internal/detector"
)

// CalibrationConfig finds the SNR at which the exact ML detector reaches
// a target PER — the paper's definition of its operating points ("the
// examined SNR is such that an ML decoder reaches approximately the
// practical packet error rates of 0.1 and 0.01", §5.1).
type CalibrationConfig struct {
	Link      LinkConfig
	TargetPER float64
	Packets   int // packets per PER evaluation
	Seed      uint64
	Channels  ChannelProvider
	// LoDB and HiDB bracket the search (defaults 0 and 45 dB).
	LoDB, HiDB float64
	// Iterations bounds the bisection steps (default 10).
	Iterations int
	// MLMaxNodes caps the sphere search per vector (0 = exact).
	MLMaxNodes int64
	// NewDetector overrides the detector whose PER curve is bisected
	// (default: the exact ML sphere decoder — the paper's anchor). A
	// fresh instance is created per PER evaluation.
	NewDetector func() detector.Detector
	// Workers is the packet-level parallelism of each PER evaluation
	// (see SimConfig.Workers); the bisection path is identical for every
	// worker count because each evaluation is bit-identical.
	Workers int
}

// CalibrateSNR bisects the (monotone) ML PER-vs-SNR curve and returns the
// SNR in dB at which PER_ML ≈ TargetPER, together with the measured PER
// at that point.
func CalibrateSNR(cfg CalibrationConfig) (snrdB, measuredPER float64, err error) {
	if cfg.TargetPER <= 0 || cfg.TargetPER >= 1 {
		return 0, 0, fmt.Errorf("phy: target PER %v out of (0,1)", cfg.TargetPER)
	}
	if cfg.HiDB == 0 {
		cfg.HiDB = 45
	}
	if cfg.Iterations == 0 {
		cfg.Iterations = 10
	}
	newDet := cfg.NewDetector
	if newDet == nil {
		newDet = func() detector.Detector {
			ml := detector.NewSphere(cfg.Link.Constellation)
			ml.MaxNodes = cfg.MLMaxNodes
			return ml
		}
	}
	perAt := func(snr float64) (float64, error) {
		res, err := Run(SimConfig{
			Link:            cfg.Link,
			SNRdB:           snr,
			Packets:         cfg.Packets,
			Seed:            cfg.Seed,
			DetectorFactory: newDet,
			Workers:         cfg.Workers,
			Channels:        cfg.Channels,
		})
		if err != nil {
			return 0, err
		}
		return res.PER, nil
	}
	lo, hi := cfg.LoDB, cfg.HiDB
	perLo, err := perAt(lo)
	if err != nil {
		return 0, 0, err
	}
	perHi, err := perAt(hi)
	if err != nil {
		return 0, 0, err
	}
	if perLo < cfg.TargetPER {
		return lo, perLo, nil // already below target at the low end
	}
	if perHi > cfg.TargetPER {
		return hi, perHi, nil // cannot reach target within the bracket
	}
	mid, perMid := lo, perLo
	for i := 0; i < cfg.Iterations; i++ {
		mid = (lo + hi) / 2
		perMid, err = perAt(mid)
		if err != nil {
			return 0, 0, err
		}
		if perMid > cfg.TargetPER {
			lo = mid
		} else {
			hi = mid
		}
	}
	return mid, perMid, nil
}
