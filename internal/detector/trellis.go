package detector

import (
	"flexcore/internal/cmatrix"
	"flexcore/internal/constellation"
)

// Trellis is the trellis-based fully-parallel detector of Wu et al. [50]
// ("A GPU implementation of a real-time MIMO detector"): the sphere
// decoding tree is flattened into a trellis whose stages are the tree
// levels and whose |Q| states per stage are the constellation symbols.
// One processing element per constellation point computes, at every
// stage, the partial Euclidean distances from all predecessor survivors
// and keeps the best — a Viterbi-style approximation of the tree search.
// The scheme therefore requires exactly |Q| processing elements and, as
// the paper stresses, cannot scale with more or fewer.
type Trellis struct {
	treeState
	ops OpCount
}

// NewTrellis returns the [50] baseline detector.
func NewTrellis(cons *constellation.Constellation) *Trellis {
	return &Trellis{treeState: treeState{cons: cons}}
}

// Name implements Detector.
func (d *Trellis) Name() string { return "Trellis[50]" }

// NumPaths returns the fixed processing-element requirement |Q|.
func (d *Trellis) NumPaths() int { return d.cons.Size() }

// Prepare implements Detector.
func (d *Trellis) Prepare(h *cmatrix.Matrix, sigma2 float64) error {
	d.qr = cmatrix.SortedQR(h, cmatrix.OrderSQRD)
	d.n = h.Cols
	d.ops.Prepares++
	muls := int64(4 * h.Rows * h.Cols * h.Cols)
	d.ops.RealMuls += muls
	d.ops.FLOPs += 2 * muls
	return nil
}

type trellisPath struct {
	idx []int
	sym []complex128
	ped float64
}

// Detect implements Detector.
func (d *Trellis) Detect(y []complex128) []int {
	ybar := d.qr.Ybar(y)
	d.ops.RealMuls += int64(4 * len(y) * d.n)
	d.ops.FLOPs += int64(8 * len(y) * d.n)
	d.ops.Detections++

	m := d.cons.Size()
	pts := d.cons.Points()
	// Stage 1 (top row): one survivor per state.
	row := d.n - 1
	rii := real(d.qr.R.At(row, row))
	cur := make([]trellisPath, m)
	for k := range pts {
		idx := make([]int, d.n)
		sym := make([]complex128, d.n)
		idx[row], sym[row] = k, pts[k]
		cur[k] = trellisPath{idx: idx, sym: sym, ped: cmatrix.PEDIncrement(ybar[row], rii, pts[k])}
		d.ops.RealMuls += 2
		d.ops.FLOPs += 7
	}
	d.ops.Nodes += int64(m)

	for row = d.n - 2; row >= 0; row-- {
		rii = real(d.qr.R.At(row, row))
		// Each predecessor's cancelled observation depends only on its own
		// surviving path.
		bs := make([]complex128, m)
		for q := range cur {
			bs[q] = cmatrix.CancelRow(d.qr.R, ybar, cur[q].sym, row)
			d.ops.RealMuls += int64(4 * (d.n - 1 - row))
		}
		next := make([]trellisPath, m)
		for kp := range pts { // next-stage state (PE kp)
			bestQ, bestPED := -1, 0.0
			for q := range cur {
				ped := cur[q].ped + cmatrix.PEDIncrement(bs[q], rii, pts[kp])
				d.ops.RealMuls += 2
				d.ops.FLOPs += 7
				if bestQ < 0 || ped < bestPED {
					bestQ, bestPED = q, ped
				}
			}
			idx := append([]int(nil), cur[bestQ].idx...)
			sym := append([]complex128(nil), cur[bestQ].sym...)
			idx[row], sym[row] = kp, pts[kp]
			next[kp] = trellisPath{idx: idx, sym: sym, ped: bestPED}
		}
		cur = next
		d.ops.Nodes += int64(m)
	}
	best := 0
	for q := 1; q < m; q++ {
		if cur[q].ped < cur[best].ped {
			best = q
		}
	}
	return d.qr.UnpermuteInts(cur[best].idx)
}

// OpCount implements Detector.
func (d *Trellis) OpCount() OpCount { return d.ops }
