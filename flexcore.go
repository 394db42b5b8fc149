// Package flexcore is a Go implementation of FlexCore (Husmann, Georgis,
// Nikitopoulos, Jamieson — "FlexCore: Massively Parallel and Flexible
// Processing for Large MIMO Access Points", NSDI 2017): a massively
// parallel, processing-element-flexible approximate-ML MIMO detector,
// together with every substrate the paper's evaluation needs — complex
// linear algebra, QAM constellations, 802.11 coding and OFDM numerology,
// wireless channel models, the baseline detectors (ML sphere decoding,
// FCSD, K-best, trellis, SIC, MMSE/ZF), a full link-level simulator, and
// calibrated GPU/FPGA/LTE platform models.
//
// The root package is a facade over internal packages; it exposes the
// types a downstream user needs to detect uplink MIMO transmissions and
// to run link-level experiments. See README.md for a walkthrough and
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
// in one call (reusing position vectors across coherent subcarriers when
// Options.PathReuse is set):
//
//	if err := det.PrepareAll(hs, sigma2); err != nil { ... }
//	for k := range hs {
//		det.Select(k)
//		symbols := det.Detect(ys[k])
//	}
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

// NewMatrix returns a zero rows×cols matrix.
func NewMatrix(rows, cols int) *Matrix { return cmatrix.New(rows, cols) }

// Constellation is a square Gray-mapped QAM alphabet with unit average
// symbol energy.
type Constellation = constellation.Constellation

// NewConstellation returns the M-QAM constellation (M ∈ {4, 16, 64, 256, 1024}).
func NewConstellation(m int) (*Constellation, error) { return constellation.New(m) }

// MustConstellation is NewConstellation for known-valid orders.
func MustConstellation(m int) *Constellation { return constellation.MustNew(m) }

// Detector is the two-phase detection interface every detector in the
// library implements: Prepare once per channel, Detect once per vector.
type Detector = detector.Detector

// BatchDetector is a Detector with an amortised burst entry point:
// DetectBatch detects a whole slice of received vectors (e.g. every OFDM
// symbol of a packet on one subcarrier) in one call. FlexCore implements
// it natively; wrap any other detector with AsBatchDetector.
type BatchDetector = detector.BatchDetector

// AsBatchDetector returns d's native batch implementation when it has
// one, or a sequential loop adapter otherwise.
func AsBatchDetector(d Detector) BatchDetector { return detector.Batch(d) }

// OpCount carries instrumentation counters (real multiplications, FLOPs,
// visited nodes) in the units the paper reports.
type OpCount = detector.OpCount

// Options configures the FlexCore detector (processing elements,
// a-FlexCore threshold, QR ordering, slicer variant, path reuse, kernel
// backend). A detector is single-threaded: run one per goroutine. A
// frame's subcarriers may still run on several cores — the frame loop
// behind RunLink stripes them over helper detectors of its own when
// cores are idle, with results unchanged.
type Options = core.Options

// FlexCore is the paper's detector.
type FlexCore = core.FlexCore

// Path is a pre-processing position vector with its model probability.
type Path = core.Path

// Backend selects the arithmetic kernels behind Options.Backend: the
// complex128 reference implementation or the float32 structure-of-
// arrays fast path (DESIGN.md §11).
type Backend = core.Backend

// The available hot-path kernel backends.
const (
	BackendComplex128 = core.BackendComplex128
	BackendSoA32      = core.BackendSoA32
)

// ParseBackend maps a command-line spelling ("complex128", "soa32", …)
// to a Backend; the empty string selects the default complex128.
func ParseBackend(s string) (Backend, bool) { return core.ParseBackend(s) }

// New returns a FlexCore detector for the constellation.
func New(cons *Constellation, opts Options) *FlexCore { return core.New(cons, opts) }

// Baseline detectors evaluated by the paper.
var (
	// NewML returns the exact maximum-likelihood depth-first sphere
	// decoder (the paper's Geosphere reference).
	NewML = func(cons *Constellation) *detector.Sphere { return detector.NewSphere(cons) }
	// NewMMSE returns the linear MMSE detector.
	NewMMSE = detector.NewMMSE
	// NewZF returns the zero-forcing detector.
	NewZF = detector.NewZF
	// NewSIC returns ordered successive interference cancellation
	// (V-BLAST).
	NewSIC = detector.NewSIC
	// NewFCSD returns the fixed complexity sphere decoder with L fully
	// expanded levels (|Q|^L parallel paths).
	NewFCSD = detector.NewFCSD
	// NewKBest returns a breadth-first K-best decoder.
	NewKBest = detector.NewKBest
	// NewTrellis returns the trellis-based parallel detector of Wu et
	// al. [50].
	NewTrellis = detector.NewTrellis
	// NewLRZF returns lattice-reduction-aided zero-forcing (related work
	// [15]; strictly sequential, included as a baseline).
	NewLRZF = detector.NewLRZF
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
	// code rate, subcarriers, OFDM symbols per packet).
	LinkConfig = phy.LinkConfig
	// SimConfig drives one link-level measurement.
	SimConfig = phy.SimConfig
	// SimResult summarises PER, BER and network throughput.
	SimResult = phy.Result
	// CalibrationConfig locates the SNR of a PER operating point.
	CalibrationConfig = phy.CalibrationConfig
	// ChannelProvider supplies per-packet per-subcarrier channels.
	ChannelProvider = phy.ChannelProvider
	// WaveformConfig drives a full time-domain (waveform-level) run with
	// preamble-based channel estimation.
	WaveformConfig = phy.WaveformConfig
	// WaveformResult reports waveform-level detection quality.
	WaveformResult = phy.WaveformResult
)

// RunLink simulates packets through the full TX→channel→RX chain.
func RunLink(cfg SimConfig) (SimResult, error) { return phy.Run(cfg) }

// CalibrateSNR bisects a detector's PER-vs-SNR curve to a target PER
// (default detector: exact ML — the paper's anchor definition).
func CalibrateSNR(cfg CalibrationConfig) (snrdB, measuredPER float64, err error) {
	return phy.CalibrateSNR(cfg)
}

// RunWaveform executes the time-domain over-the-air-style chain: OFDM
// waveform synthesis, sample-level multipath, LTF channel estimation,
// then detection.
func RunWaveform(cfg WaveformConfig) (WaveformResult, error) { return phy.RunWaveform(cfg) }

// QRResult is a (column-permuted) thin QR decomposition H·P = Q·R.
type QRResult = cmatrix.QRResult

// SortedQR computes the SQRD-ordered QR decomposition [13] used by the
// tree-search detectors; its R factor feeds FindPaths.
func SortedQR(h *Matrix) *QRResult { return cmatrix.SortedQR(h, cmatrix.OrderSQRD) }

// FindPaths exposes FlexCore's pre-processing directly: the nPE most
// promising position vectors for a channel with upper-triangular factor
// r and noise variance sigma2 (stopThreshold > 0 enables the a-FlexCore
// early stop).
func FindPaths(r *Matrix, sigma2 float64, cons *Constellation, nPE int, stopThreshold float64) []Path {
	model := core.NewModel(r, sigma2, cons)
	paths, _ := core.FindPaths(model, nPE, stopThreshold)
	return paths
}
