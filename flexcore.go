// Package flexcore is a Go implementation of FlexCore (Husmann, Georgis,
// Nikitopoulos, Jamieson — "FlexCore: Massively Parallel and Flexible
// Processing for Large MIMO Access Points", NSDI 2017): a massively
// parallel, processing-element-flexible approximate-ML MIMO detector,
// together with every substrate the paper's evaluation needs — complex
// linear algebra, QAM constellations, 802.11 coding and OFDM numerology,
// wireless channel models, the baseline detectors (ML sphere decoding,
// FCSD, trellis, MMSE, SIC as one-PE FlexCore), a full link-level
// simulator, and calibrated GPU/FPGA/LTE platform models.
//
// The root package is a facade over internal packages, cut to what the
// programs under examples/ use: detect uplink MIMO transmissions and
// run link-level experiments. See README.md for a walkthrough and
// DESIGN.md for the architecture.
//
// Basic use:
//
//	cons := flexcore.MustConstellation(64)
//	det := flexcore.New(cons, flexcore.Options{NPE: 128})
//	// per channel realisation (e.g. per OFDM subcarrier):
//	if err := det.Prepare(h, sigma2); err != nil { ... }
//	// per received vector:
//	symbols := det.Detect(y)
//
// For OFDM frames, the channel-rate fast path prepares every subcarrier
// in one call:
//
//	if err := det.PrepareAll(hs, sigma2); err != nil { ... }
//	for k := range hs {
//		det.Select(k)
//		symbols := det.Detect(ys[k])
//	}
//
// With Options.PathReuse, a Prepare of the previous Prepare's channel
// reuses its position vectors, and a ReuseState installed with
// SetReuseState carries a frame's path sets to the next PrepareAll
// against it: a subcarrier whose channel is unchanged skips its search.
// The serving layer keys one ReuseState per user.
package flexcore

import (
	"flexcore/internal/channel"
	"flexcore/internal/cmatrix"
	"flexcore/internal/constellation"
	"flexcore/internal/core"
	"flexcore/internal/detector"
	"flexcore/internal/phy"
)

// Matrix is a dense complex matrix (row-major); channels are Nr×Nt.
type Matrix = cmatrix.Matrix

// MustConstellation returns the square Gray-mapped M-QAM alphabet with
// unit average symbol energy (M ∈ {4, 16, 64, 256, 1024}); it panics on
// any other order.
func MustConstellation(m int) *constellation.Constellation { return constellation.MustNew(m) }

// Detector is the two-phase detection interface every detector in the
// library implements: Prepare once per channel, Detect once per vector.
type Detector = detector.Detector

// Options configures the FlexCore detector (processing elements,
// a-FlexCore threshold, slicer variant, path reuse, kernel backend). A
// detector is single-threaded: run one per goroutine. A frame's
// subcarriers may still run on several cores — the frame loop behind
// RunLink prepares and detects each on its own, on the detector and,
// when cores are idle, on helper detectors of its own too, with results
// unchanged.
type Options = core.Options

// ReuseState carries PrepareAll's path sets across frames, one base per
// subcarrier, for a detector with Options.PathReuse that has it
// installed (SetReuseState). The zero value is ready to use.
type ReuseState = core.ReuseState

// New returns a FlexCore detector for the constellation.
func New(cons *constellation.Constellation, opts Options) *core.FlexCore { return core.New(cons, opts) }

// Baseline detectors evaluated by the paper.
var (
	// NewML returns the exact maximum-likelihood depth-first sphere
	// decoder (the paper's Geosphere reference).
	NewML = detector.NewSphere
	// NewMMSE returns the linear MMSE detector.
	NewMMSE = detector.NewMMSE
	// NewFCSD returns the fixed complexity sphere decoder with L fully
	// expanded levels (|Q|^L parallel paths).
	NewFCSD = detector.NewFCSD
)

// Rayleigh draws an Nr×Nt i.i.d. CN(0,1) channel from a seeded RNG.
func Rayleigh(seed uint64, nr, nt int) *Matrix {
	return channel.Rayleigh(channel.NewRNG(seed), nr, nt)
}

// Sigma2FromSNRdB converts a per-stream SNR (dB) to a noise variance for
// unit-energy constellations.
func Sigma2FromSNRdB(snrdB float64) float64 { return channel.Sigma2FromSNRdB(snrdB, 1) }

// Link-level simulation (see internal/phy for the full chain).
type (
	// LinkConfig is the uplink geometry (users, antennas, constellation,
	// subcarriers, OFDM symbols per packet).
	LinkConfig = phy.LinkConfig
	// SimConfig drives one link-level measurement.
	SimConfig = phy.SimConfig
	// SimResult summarises PER, BER and network throughput.
	SimResult = phy.Result
	// CalibrationConfig locates the SNR of a PER operating point.
	CalibrationConfig = phy.CalibrationConfig
	// ChannelProvider supplies per-packet per-subcarrier channels.
	ChannelProvider = phy.ChannelProvider
)

// RunLink simulates packets through the full TX→channel→RX chain.
func RunLink(cfg SimConfig) (SimResult, error) { return phy.Run(cfg) }

// CalibrateSNR bisects a detector's PER-vs-SNR curve to a target PER
// (default detector: exact ML — the paper's anchor definition).
func CalibrateSNR(cfg CalibrationConfig) (snrdB, measuredPER float64, err error) {
	return phy.CalibrateSNR(cfg)
}

// SortedQR computes the SQRD-ordered QR decomposition [13] used by the
// tree-search detectors; its R factor feeds FindPaths.
func SortedQR(h *Matrix) *cmatrix.QRResult { return cmatrix.SortedQR(h, cmatrix.OrderSQRD) }

// FindPaths exposes FlexCore's pre-processing directly: the nPE most
// promising position vectors for a channel with upper-triangular factor
// r and noise variance sigma2 (stopThreshold > 0 enables the a-FlexCore
// early stop).
func FindPaths(r *Matrix, sigma2 float64, cons *constellation.Constellation, nPE int, stopThreshold float64) []core.Path {
	model := core.NewModel(r, sigma2, cons)
	paths, _ := core.FindPaths(model, nPE, stopThreshold)
	return paths
}
