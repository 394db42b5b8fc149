// Package detector implements the MIMO detectors the FlexCore paper
// evaluates against that are not FlexCore itself: linear MMSE, the exact
// maximum-likelihood depth-first sphere decoder (the paper's
// "ML"/Geosphere reference), the fixed complexity sphere decoder (FCSD),
// and the trellis-based fully-parallel detector of Wu et al. [50].
// Ordered SIC is "essentially a single-path FlexCore" (§3), so it is
// built as core.New(cons, core.Options{NPE: 1}), not here.
//
// Every detector follows the same two-phase protocol: Prepare runs once
// per channel realisation (QR decompositions, filter inversions — the
// work the paper amortises across a packet), Detect runs once per
// received vector. Detect returns per-stream constellation symbol
// indices in the original (unpermuted) stream order.
package detector

import (
	"flexcore/internal/cmatrix"
	"flexcore/internal/constellation"
)

// Detector is a two-phase MIMO detector.
type Detector interface {
	// Name identifies the detector in reports.
	Name() string
	// Prepare performs channel-dependent preprocessing for channel h and
	// noise variance sigma2. It must be called before Detect and may be
	// called again for a new channel.
	Prepare(h *cmatrix.Matrix, sigma2 float64) error
	// Detect demultiplexes one received vector y into per-stream symbol
	// indices (original stream order).
	Detect(y []complex128) []int
	// OpCount returns cumulative operation counters since construction.
	OpCount() OpCount
}

// OpCount tracks arithmetic work in the units the paper reports.
type OpCount struct {
	// RealMuls counts real multiplications (the paper's Table 2 metric);
	// one complex×complex multiply contributes 4.
	RealMuls int64
	// FLOPs counts all floating-point operations (adds and multiplies),
	// the paper's Table 1 metric.
	FLOPs int64
	// Nodes counts tree nodes / candidate paths visited.
	Nodes int64
	// Detections counts Detect invocations.
	Detections int64
	// Prepares counts Prepare invocations.
	Prepares int64
}

// Add accumulates other into c.
func (c *OpCount) Add(other OpCount) {
	c.RealMuls += other.RealMuls
	c.FLOPs += other.FLOPs
	c.Nodes += other.Nodes
	c.Detections += other.Detections
	c.Prepares += other.Prepares
}

// PerDetection returns the average op counts per Detect call.
func (c OpCount) PerDetection() OpCount {
	if c.Detections == 0 {
		return OpCount{}
	}
	d := c.Detections
	return OpCount{
		RealMuls:   c.RealMuls / d,
		FLOPs:      c.FLOPs / d,
		Nodes:      c.Nodes / d,
		Detections: 1,
		Prepares:   c.Prepares,
	}
}

// treeState is the shared per-channel state of the tree-search detectors:
// a (sorted) QR decomposition and the constellation.
type treeState struct {
	qr   *cmatrix.QRResult
	cons *constellation.Constellation
	n    int // number of streams
}
