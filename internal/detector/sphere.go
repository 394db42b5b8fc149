package detector

import (
	"math"
	"sort"

	"flexcore/internal/cmatrix"
	"flexcore/internal/constellation"
)

// Sphere is the exact maximum-likelihood depth-first sphere decoder with
// Schnorr–Euchner enumeration — the paper's optimal reference detector
// (Geosphere, Nikitopoulos et al. [32], follows the same strategy). The
// first path the search follows is exactly the SIC (Babai) solution, so
// no separate initial radius is needed; children at every node are
// visited in ascending partial-distance order, which allows pruning an
// entire subtree as soon as one child exceeds the current radius.
type Sphere struct {
	treeState
	// MaxNodes bounds the visited-node count per Detect as a safety valve
	// for pathologically conditioned channels or absurd observations
	// (without it, a far-out receive vector defeats all pruning and the
	// search enumerates |Q|^Nt leaves). When the bound trips, the best
	// leaf found so far is returned. NewSphere sets DefaultMaxNodes; set
	// 0 explicitly for a provably exhaustive (possibly very slow) search.
	MaxNodes int64
	ops      OpCount

	// Scratch reused across Detect calls.
	frames []sphereFrame
	sym    []complex128
	best   []int
	cur    []int
}

type sphereFrame struct {
	b       complex128
	pedBase float64
	order   []int
	dists   []float64
	next    int
}

// DefaultMaxNodes is NewSphere's per-detection node budget — orders of
// magnitude above what any calibrated operating point needs, while still
// guaranteeing termination on adversarial inputs.
const DefaultMaxNodes = 1 << 18

// NewSphere returns the exact ML detector.
func NewSphere(cons *constellation.Constellation) *Sphere {
	return &Sphere{treeState: treeState{cons: cons}, MaxNodes: DefaultMaxNodes}
}

// Name implements Detector.
func (d *Sphere) Name() string { return "ML" }

// Prepare implements Detector.
func (d *Sphere) Prepare(h *cmatrix.Matrix, sigma2 float64) error {
	d.qr = cmatrix.SortedQR(h, cmatrix.OrderSQRD)
	d.n = h.Cols
	d.ops.Prepares++
	muls := int64(4 * h.Rows * h.Cols * h.Cols)
	d.ops.RealMuls += muls
	d.ops.FLOPs += 2 * muls
	if cap(d.frames) < d.n {
		d.frames = make([]sphereFrame, d.n)
		for i := range d.frames {
			d.frames[i].order = make([]int, d.cons.Size())
			d.frames[i].dists = make([]float64, d.cons.Size())
		}
		d.sym = make([]complex128, d.n)
		d.best = make([]int, d.n)
		d.cur = make([]int, d.n)
	}
	return nil
}

// enterFrame fills a frame for row i: the interference-cancelled
// observation and the exact ascending-distance candidate order.
func (d *Sphere) enterFrame(f *sphereFrame, ybar []complex128, i int, pedBase float64) {
	f.b = cmatrix.CancelRow(d.qr.R, ybar, d.sym, i)
	f.pedBase = pedBase
	f.next = 0
	rii := real(d.qr.R.At(i, i))
	pts := d.cons.Points()
	for k, q := range pts {
		f.order[k] = k
		f.dists[k] = cmatrix.PEDIncrement(f.b, rii, q)
	}
	sort.Sort(&argSort{order: f.order, dists: f.dists})
	// Per-node cost: (n−1−i) complex MACs for the cancellation and |Q|
	// two-multiplication distance evaluations.
	muls := int64(4*(d.n-1-i) + 2*d.cons.Size())
	d.ops.RealMuls += muls
	d.ops.FLOPs += 2*muls + int64(d.cons.Size())
	d.ops.Nodes++
}

// argSort sorts order by dists (both permuted together).
type argSort struct {
	order []int
	dists []float64
}

func (a *argSort) Len() int           { return len(a.order) }
func (a *argSort) Less(i, j int) bool { return a.dists[a.order[i]] < a.dists[a.order[j]] }
func (a *argSort) Swap(i, j int)      { a.order[i], a.order[j] = a.order[j], a.order[i] }

// Detect implements Detector. It returns the exact ML symbol vector
// (subject to MaxNodes).
func (d *Sphere) Detect(y []complex128) []int {
	ybar := d.qr.Ybar(y)
	d.ops.RealMuls += int64(4 * len(y) * d.n)
	d.ops.FLOPs += int64(8 * len(y) * d.n)
	d.ops.Detections++

	radius := math.Inf(1)
	nodesAtStart := d.ops.Nodes
	depth := 0 // frame index; row = n−1−depth
	d.enterFrame(&d.frames[0], ybar, d.n-1, 0)
	haveBest := false

	for depth >= 0 {
		if d.MaxNodes > 0 && d.ops.Nodes-nodesAtStart > d.MaxNodes && haveBest {
			break
		}
		f := &d.frames[depth]
		row := d.n - 1 - depth
		if f.next >= d.cons.Size() {
			depth--
			continue
		}
		cand := f.order[f.next]
		ped := f.pedBase + f.dists[cand]
		f.next++
		if ped >= radius {
			// Children are sorted: nothing further in this frame can win.
			depth--
			continue
		}
		d.cur[row] = cand
		d.sym[row] = d.cons.Point(cand)
		if row == 0 {
			radius = ped
			copy(d.best, d.cur)
			haveBest = true
			continue
		}
		depth++
		d.enterFrame(&d.frames[depth], ybar, row-1, ped)
	}
	out := make([]int, d.n)
	copy(out, d.best)
	return d.qr.UnpermuteInts(out)
}

// OpCount implements Detector.
func (d *Sphere) OpCount() OpCount { return d.ops }
