package kernel32

import (
	"math"

	"flexcore/internal/cmatrix"
)

// Prep is what one descent reads besides the received vector: the
// per-channel planes — the upper-triangular R factor as float32 planes
// and the per-level reciprocals that replace the complex128 division of
// the scalar path — and the compiled Plan of the selected path set. Both
// are read-only during detection.
type Prep struct {
	N int // tree levels (streams)

	// R's upper triangle, column-major: R(l, j) at j·N+l for l ≤ j, so
	// the column a decided symbol at level j is cancelled through, rows
	// 0…j−1, is one contiguous run at j·N. Entries below the diagonal are
	// unused.
	R   []c32
	Rii []float32 // real diagonal of R, value units
	W   []float32 // per-level (1/Rii)·(1/scale): b·W is z in half-distance units

	// Plan is the path set Descend walks. An owner of path sets
	// (internal/core) points it at a plan it built when it searched the
	// paths, so activating a channel costs no rank work at all.
	// EnsureRanks clears it; the next Descend then compiles the staged
	// rank plane into the Prep's own plan and installs that.
	Plan *Plan

	// Degenerate is set when some diagonal entry is ≤ 0 in float32: every
	// path deactivates at that level (exactly as in the scalar backend),
	// so detection goes straight to the clamped-SIC fallback.
	Degenerate bool

	comp Compiler // EnsureRanks route: staging plane and compile scratch
	own  Plan     // EnsureRanks route: the plan compiled from it
}

// SetChannel converts the upper triangle of r into the float32 planes,
// growing the arenas only when the level count grows. invScale is the
// constellation's 1/scale factor folded into W.
//
//flexcore:noalloc
func (pr *Prep) SetChannel(r *cmatrix.Matrix, invScale float64) {
	n := r.Cols
	if cap(pr.R) < n*n {
		pr.R = make([]c32, n*n)
		pr.Rii = make([]float32, n)
		pr.W = make([]float32, n)
	}
	pr.N = n
	pr.R = pr.R[:n*n]
	pr.Rii = pr.Rii[:n]
	pr.W = pr.W[:n]
	pr.Degenerate = false
	for i := 0; i < n; i++ {
		row := r.Data[i*r.Cols : i*r.Cols+n]
		for j := i; j < n; j++ {
			pr.R[j*n+i] = c32{float32(real(row[j])), float32(imag(row[j]))}
		}
		rii := real(row[i])
		pr.Rii[i] = float32(rii)
		if pr.Rii[i] <= 0 { // as float32: a diagonal that underflows is a zero one
			pr.Degenerate = true
			pr.W[i] = 0
			continue
		}
		pr.W[i] = float32(invScale / rii)
	}
}

// EnsureRanks sizes a rank plane for p lanes of the current level count
// and returns it for the caller to fill level-major (plane[i*p+lane] =
// the lane's 1-based rank at level i). The active plan is cleared: the
// next Descend compiles the plane. It only allocates when n×p grows.
//
//flexcore:noalloc
func (pr *Prep) EnsureRanks(p int) []int16 {
	pr.Plan = nil
	return pr.comp.Ranks(pr.N, p)
}

// plan returns the active plan, first compiling the rank plane staged by
// EnsureRanks when that is newer.
//
//flexcore:noalloc
func (pr *Prep) plan() *Plan {
	if pr.Plan == nil {
		pr.comp.Compile(&pr.own)
		pr.Plan = &pr.own
	}
	return pr.Plan
}

// c32 is one complex float32 value. The descent keeps re and im side by
// side: one slice, one bounds check and one cache line per complex
// access.
type c32 struct{ re, im float32 }

// Scratch is the mutable state of one descent: the rotated received
// vector, the per-node distances and decisions, and the depth-first
// walk's stack. One Scratch serves any number of sequential detections;
// concurrent descents each own one.
type Scratch struct {
	yb []c32 // N: rotated received vector ȳ — the root's row of u

	// Per plan node of the last descent, leaves first: lane q's leaf at
	// q, then the plan's inner runs (inner node i at P+i). A node the walk
	// did not slice — below a deactivated node, or below one whose partial
	// distance exceeded the bound — keeps whatever an earlier descent
	// left, except that the range's leaves read +Inf; the returned lane's
	// nodes are always decided.
	Ped []float32 // accumulated partial Euclidean distance
	Idx []int32   // decided symbol index
	// Visited counts the nodes the last descent sliced (Plan.Nodes is
	// what an unbounded walk slices), Chains the sibling chains it sliced.
	Visited, Chains int

	// The walk's stack: per depth, the node on the current path, and per
	// depth t < N its cancellation rows at u[t*N:] — row l < N−t holds
	// ȳ(l) less the interference of the symbols decided along the path.
	stack []cursor
	u     []c32
	plan  *Plan // plan of the last descent, for GatherIdx
}

// cursor is one depth of the walk's current path: the node and, set as
// the walk steps below it, the row half its children's slicer steps share.
type cursor struct {
	at     int32   // the node's slot in the plan's inner runs
	ped    float32 // its partial distance
	b      c32     // the children's observation, and their level's
	rii    float32 // diagonal entry of R
	bx, by int32   // the nearest square's centre, plus side−1
	sx, sy int32   // −1 where the offset from that centre is negative
	swap2  int32   // 2 when |dy| > |dx|: the offset table's swapped pair
}

// Ensure sizes the ȳ vector and the walk's stack for n levels; the node
// planes are sized by Descend from the plan it walks (p is the lane
// count callers already know and is kept for the signature's sake). It
// only allocates when n grows.
//
//flexcore:noalloc
func (s *Scratch) Ensure(n, p int) {
	if cap(s.u) < n*n {
		s.u = make([]c32, n*n)
		s.stack = make([]cursor, n+1)
	}
	s.u = s.u[:n*n]
	s.stack = s.stack[:n+1]
	s.yb = s.u[:n]
}

// fit sizes the node planes for a descent of pl; it only allocates when
// the plan outgrows every earlier one.
//
//flexcore:noalloc
func (s *Scratch) fit(pl *Plan) {
	nodes := pl.Nodes()
	if cap(s.Ped) < nodes {
		s.Ped = make([]float32, nodes)
		s.Idx = make([]int32, nodes)
	}
	s.Ped = s.Ped[:nodes]
	s.Idx = s.Idx[:nodes]
	s.plan = pl
}

// SetYbar converts the rotated received vector into the ȳ plane. The
// scratch must already be Ensured for len(yb) levels.
//
//flexcore:noalloc
func (s *Scratch) SetYbar(yb []complex128) {
	dst := s.yb[:len(yb)]
	for i, v := range yb {
		dst[i] = c32{float32(real(v)), float32(imag(v))}
	}
}

// GatherIdx copies lane p's decided symbol indices of the last descent
// (factored stream order) into dst, one per level: lane p's own nodes up
// to its top, then those of the lanes it comes from, up to the root.
// They are the lane's decisions when its distance is finite — always,
// for the returned lane.
//
//flexcore:noalloc
func (s *Scratch) GatherIdx(p int, dst []int) {
	pl := s.plan
	q := p
	for j := range dst {
		q = pl.owner(j, q)
		dst[j] = int(s.Idx[pl.slot(j, q)])
	}
}

var inf32 = float32(math.Inf(1))
