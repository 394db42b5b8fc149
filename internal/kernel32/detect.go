package kernel32

import "math"

const signBit = 1 << 31

// Descend walks the prefix trie of the selected paths (pr.Plan) depth
// first, deciding each distinct node that can still hold the answer
// once: it reads the node's interference-cancelled observation b from
// its parent's cancellation rows, forms the effective received point
// with one reciprocal multiply (no complex division), picks the node's
// rank-th closest symbol with the inlined integer slicer and extends the
// parent's partial Euclidean distance. Before it steps into the node's
// children it cancels the decided symbol out of every row below in push
// form — u(l) = parent.u(l) − R(l,j)·sym for l < j — so they find their
// b ready. A suffix shared by many paths is sliced and cancelled once;
// the leaves are one per lane.
//
// The walk is bounded by the best leaf completed so far. A node whose
// partial distance exceeds it is decided but not descended, and a
// sibling chain is abandoned once its parent's partial distance exceeds
// it. Partial distances never decrease down a path (a non-negative
// float32 addend never rounds a sum down) and the bound only falls, so
// a leaf at or below the range's minimum has every ancestor at or below
// the bound at every moment and is never skipped: the returned lane and
// distance are the unbounded walk's, bit for bit. NaN compares false: it
// prunes nothing and never wins. Children are visited first child
// first, and the first child is the one the lowest lane walks, so a
// descent of [0, hi) completes lane 0 first and slices no node whose
// parent lies beyond lane 0's distance. DESIGN.md §11.2 has the
// argument.
//
// The node step is branch-free where the data decides (the sign of the
// offset from the square centre, the diagonal swap, the clamp): coin
// flips per node, and a mispredicted branch costs several times the
// step's arithmetic.
//
// strict selects the paper's literal §3.2 deactivation: a candidate
// outside the constellation kills the node and the subtree under it;
// the default saturates the slicer per axis. A dead node reads +Inf and
// is not descended. With pr.Degenerate the caller must skip Descend and
// take the fallback, like the scalar backend's per-level rii ≤ 0
// bailout.
//
// It returns the best lane of [lo, hi) (ties resolved to the lowest
// lane index, matching the scalar first-strict-improvement scan) and
// its distance; lane −1 means the range is empty or all of it
// deactivated. Only the leaves and the argmin are restricted to the
// range; the levels above are walked for every lane of the plan.
//
// A plan staged through EnsureRanks is compiled here on first use;
// callers that share one Prep between concurrent descents must install
// a compiled Plan beforehand, as internal/core does.
//
//flexcore:noalloc
func Descend(pr *Prep, sl *Slicer32, s *Scratch, lo, hi int, strict bool) (lane int, ped float32) {
	pl := pr.plan()
	s.fit(pl) //lint:ignore noalloc amortised: the inlined arena helper allocates only when a plan outgrows every earlier one
	s.Visited = 0
	if lo >= hi {
		return -1, inf32
	}
	n := pr.N
	side, fside := sl.side, sl.fside
	off, pts := sl.off, sl.pts
	nodes, start := pl.nodes, pl.start
	peds, idxs := s.Ped, s.Idx
	u, stack := s.u, s.stack[:n+1]
	leaves := peds[start[n]:][lo:hi]
	for p := range leaves {
		leaves[p] = inf32 // until sliced: a leaf the bound keeps out stays so
	}

	best, win := inf32, int32(-1)
	visited := 0
	stack[0] = cursor{0, 0} // the root: ȳ is its row of u
	t, q := 1, nodes[0].kid
	for {
		// The chain at depth t is done — run out, past the range, or
		// under a parent the bound has since overtaken: back up a depth.
		if q < 0 || stack[t-1].ped > best || t == n && int(q) >= hi {
			if t--; t == 0 {
				break
			}
			q = nodes[int(start[t])+int(stack[t].at)].sib
			continue
		}
		g := int(start[t]) + int(q)
		v := nodes[g]
		if t == n && int(q) < lo {
			q = v.sib
			continue
		}
		visited++

		// Slice: z = b·W is already in half-distance units, so the lookup
		// is integer math on float bits.
		j := n - t
		bv := u[(t-1)*n+j]
		w, rii := pr.W[j], pr.Rii[j]
		zx := bv.re * w
		zy := bv.im * w
		// Nearest midpoint-grid square, rounding half away from zero
		// (round32): round the magnitude, then restore the sign.
		vx := math.Float32bits((zx + fside) * 0.5)
		vy := math.Float32bits((zy + fside) * 0.5)
		gx := int32(vx) >> 31
		gy := int32(vy) >> 31
		mx := (int32(math.Float32frombits(vx&^signBit)+0.5) ^ gx) - gx
		my := (int32(math.Float32frombits(vy&^signBit)+0.5) ^ gy) - gy
		cx := 2*mx - side
		cy := 2*my - side
		// Offset from the square centre. Its sign mask is −1 exactly when
		// d < 0: x&(x−1) keeps the sign bit of every negative pattern
		// except −0's, which must count as non-negative.
		dx := math.Float32bits(zx - float32(cx))
		dy := math.Float32bits(zy - float32(cy))
		sx := int32(dx&(dx-1)) >> 31
		sy := int32(dy&(dy-1)) >> 31
		// |dy| > |dx| as an integer compare of the magnitudes' bits
		// (monotone for non-negative floats), taken as a 0/1 value.
		swap := int32(uint32(int32(dx&^signBit)-int32(dy&^signBit)) >> 31)
		e := v.kidx + 2*swap
		oa := off[e]
		ob := off[e+1]
		// Offsets are odd and centres even, so both sums are even and the
		// shift is the exact signed halving.
		nx := (cx + ((oa ^ sx) - sx) + side - 1) >> 1
		ny := (cy + ((ob ^ sy) - sy) + side - 1) >> 1
		if strict && (uint32(nx) >= uint32(side) || uint32(ny) >= uint32(side)) {
			peds[g], q = inf32, v.sib // dead, and its subtree with it
			continue
		}
		// Saturate each axis to [0, side): v &^ (v>>31) is max(v, 0), and
		// the same mask takes min(v, side−1) off the excess.
		nx &^= nx >> 31
		ny &^= ny >> 31
		ex, ey := nx-side+1, ny-side+1
		nx -= ex &^ (ex >> 31)
		ny -= ey &^ (ey >> 31)
		k := ny*side + nx
		pt := pts[k]
		dr := bv.re - rii*pt.re
		di := bv.im - rii*pt.im
		d := stack[t-1].ped + (dr*dr + di*di)
		peds[g], idxs[g] = d, k

		if t == n {
			// A completed leaf: the lower lane wins a tie, whatever the
			// order the walk reached the two in.
			if d <= best && (d < best || q < win) {
				best, win = d, q
			}
			q = v.sib
			continue
		}
		if d > best {
			q = v.sib
			continue
		}
		// Step down: push the symbol into the rows below, one contiguous
		// run gathering the column of R.
		stack[t] = cursor{q, d}
		src := u[(t-1)*n : (t-1)*n+j]
		dst := u[t*n : t*n+j]
		for l := range dst {
			rr, ri := pr.Rre[l*n+j], pr.Rim[l*n+j]
			pv := src[l]
			dst[l] = c32{pv.re - (rr*pt.re - ri*pt.im), pv.im - (rr*pt.im + ri*pt.re)}
		}
		t, q = t+1, v.kid
	}
	s.Visited = visited
	return int(win), best
}
