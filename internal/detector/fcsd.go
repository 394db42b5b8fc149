package detector

import (
	"fmt"
	"math"

	"flexcore/internal/cmatrix"
	"flexcore/internal/constellation"
)

// FCSD is the fixed complexity sphere decoder of Barbero and Thompson
// [4]: the top L tree levels are fully expanded (every constellation
// symbol), the remaining Nt−L levels follow the single nearest-symbol
// child. The |Q|^L candidate paths are independent, which is what makes
// the scheme parallel — but the path count is locked to powers of the
// constellation order, the flexibility FlexCore removes.
type FCSD struct {
	treeState
	L   int
	ops OpCount
	sym []complex128
}

// NewFCSD returns an FCSD that fully expands l levels (l ≥ 0; l = 0
// degenerates to SIC over the FCSD ordering).
func NewFCSD(cons *constellation.Constellation, l int) *FCSD {
	if l < 0 {
		panic("detector: FCSD expansion depth must be ≥ 0")
	}
	return &FCSD{treeState: treeState{cons: cons}, L: l}
}

// Name implements Detector.
func (d *FCSD) Name() string { return fmt.Sprintf("FCSD(L=%d)", d.L) }

// NumPaths returns the number of parallel candidate paths |Q|^L.
func (d *FCSD) NumPaths() int {
	p := 1
	for i := 0; i < d.L; i++ {
		p *= d.cons.Size()
	}
	return p
}

// Prepare implements Detector using the FCSD channel ordering [4].
func (d *FCSD) Prepare(h *cmatrix.Matrix, sigma2 float64) error {
	if d.L > h.Cols {
		return fmt.Errorf("detector: FCSD L=%d exceeds %d streams", d.L, h.Cols)
	}
	d.qr = cmatrix.SortedQRFCSD(h, d.L)
	d.n = h.Cols
	d.ops.Prepares++
	muls := int64(4 * h.Rows * h.Cols * h.Cols)
	d.ops.RealMuls += muls
	d.ops.FLOPs += 2 * muls
	if len(d.sym) < d.n {
		d.sym = make([]complex128, d.n)
	}
	return nil
}

// Detect implements Detector.
func (d *FCSD) Detect(y []complex128) []int {
	ybar := d.qr.Ybar(y)
	d.ops.RealMuls += int64(4 * len(y) * d.n)
	d.ops.FLOPs += int64(8 * len(y) * d.n)
	d.ops.Detections++

	best := make([]int, d.n)
	bestPED := math.Inf(1)
	cur := make([]int, d.n)
	// Depth-first over the fully expanded prefix so the interference
	// partial sums are shared across sibling paths, then greedy descent.
	var walk func(row int, ped float64)
	walk = func(row int, ped float64) {
		expanded := d.n - 1 - row // levels already fixed above this row
		if expanded < d.L {
			rii := real(d.qr.R.At(row, row))
			b := cmatrix.CancelRow(d.qr.R, ybar, d.sym, row)
			d.ops.Nodes++
			d.ops.RealMuls += int64(4 * (d.n - 1 - row))
			for k, q := range d.cons.Points() {
				inc := cmatrix.PEDIncrement(b, rii, q)
				d.ops.RealMuls += 2
				d.ops.FLOPs += 7
				cur[row] = k
				d.sym[row] = q
				if row == 0 {
					if ped+inc < bestPED {
						bestPED = ped + inc
						copy(best, cur)
					}
					continue
				}
				walk(row-1, ped+inc)
			}
			return
		}
		// Greedy tail: slice the effective received point at each level.
		for i := row; i >= 0; i-- {
			rii := real(d.qr.R.At(i, i))
			b := cmatrix.CancelRow(d.qr.R, ybar, d.sym, i)
			var z complex128
			if rii > 0 {
				z = b / complex(rii, 0)
			}
			k := d.cons.Slice(z)
			cur[i] = k
			d.sym[i] = d.cons.Point(k)
			ped += cmatrix.PEDIncrement(b, rii, d.cons.Point(k))
			d.ops.Nodes++
			d.ops.RealMuls += int64(4*(d.n-1-i)) + 4
			d.ops.FLOPs += int64(8*(d.n-1-i)) + 10
			if ped >= bestPED {
				// The remaining levels cannot reduce the distance; this
				// candidate path already lost.
				return
			}
		}
		if ped < bestPED {
			bestPED = ped
			copy(best, cur)
		}
	}
	walk(d.n-1, 0)
	return d.qr.UnpermuteInts(best)
}

// OpCount implements Detector.
func (d *FCSD) OpCount() OpCount { return d.ops }
