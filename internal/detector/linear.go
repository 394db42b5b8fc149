package detector

import (
	"flexcore/internal/cmatrix"
	"flexcore/internal/constellation"
)

// Linear is the linear MMSE filter-and-slice detector, the paper's linear
// baseline (Argos, BigStation and SAM all use linear detection).
type Linear struct {
	cons *constellation.Constellation
	w    *cmatrix.Matrix
	ops  OpCount
	nt   int
}

// NewMMSE returns a linear MMSE detector.
func NewMMSE(cons *constellation.Constellation) *Linear {
	return &Linear{cons: cons}
}

// Name implements Detector.
func (d *Linear) Name() string { return "MMSE" }

// Prepare computes the MMSE filter for the channel.
func (d *Linear) Prepare(h *cmatrix.Matrix, sigma2 float64) error {
	var err error
	if d.w, err = cmatrix.MMSEFilter(h, sigma2, 1); err != nil {
		return err
	}
	d.nt = h.Cols
	d.ops.Prepares++
	// Filter construction: Gram matrix (nt²·nr complex MACs), inversion
	// (≈nt³), product (nt²·nr) — count real multiplications (×4).
	nr := int64(h.Rows)
	nt := int64(h.Cols)
	muls := 4 * (nt*nt*nr + nt*nt*nt + nt*nt*nr)
	d.ops.RealMuls += muls
	d.ops.FLOPs += 2 * muls
	return nil
}

// Detect filters and slices.
func (d *Linear) Detect(y []complex128) []int {
	x := d.w.MulVec(y)
	out := make([]int, d.nt)
	for i, v := range x {
		out[i] = d.cons.Slice(v)
	}
	d.ops.Detections++
	muls := int64(4 * d.w.Rows * d.w.Cols)
	d.ops.RealMuls += muls
	d.ops.FLOPs += 2 * muls
	return out
}

// OpCount implements Detector.
func (d *Linear) OpCount() OpCount { return d.ops }
