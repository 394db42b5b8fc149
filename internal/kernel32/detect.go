package kernel32

import "math"

const signBit = 1 << 31

// Descend walks the prefix trie of the selected paths (pr.Plan) depth
// first, deciding each distinct node that can still hold the answer
// once. Stepping into a node's children, it cancels the decided symbol
// out of every row below in push form — u(l) = parent.u(l) − R(l,j)·sym
// for l < j — and slices the row the children share, their
// interference-cancelled observation b: the effective received point
// (one reciprocal multiply, no complex division), its nearest
// midpoint-grid square, the offset signs and the diagonal swap. Each
// child only applies its rank's offset pair — the inlined integer
// slicer's rank-th closest symbol — and extends the parent's partial
// Euclidean distance. A suffix shared by many paths is sliced and
// cancelled once, a sibling chain's row once; leaves are one per lane.
//
// The walk is bounded by the best leaf completed so far. A node whose
// partial distance exceeds it is decided but not descended, and a
// sibling chain is abandoned once its parent's partial distance exceeds
// it. Partial distances never decrease down a path (a non-negative
// float32 addend never rounds a sum down) and the bound only falls, so
// a leaf at or below the range's minimum has every ancestor at or below
// the bound at every moment and is never skipped: the returned lane and
// distance are the unbounded walk's, bit for bit. NaN compares false: it
// prunes nothing and never wins. The walk moves over owner lanes:
// stepping down keeps the lane — a node's first child is its own lane's,
// the next slot of its run or its leaf — and a sibling step follows the
// link to the next owner, further on in the plan. So a descent
// of [0, hi) completes lane 0 first and slices no node whose parent lies
// beyond lane 0's distance. DESIGN.md §11.2 has the argument.
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
	s.fit(pl)
	s.Visited, s.Chains = 0, 0
	if lo >= hi {
		return -1, inf32
	}
	n := pr.N
	side, fside := sl.side, sl.fside
	off, pts := sl.off, sl.pts
	base := pl.P // inner node i is slot base+i of Ped and Idx; leaf q is slot q
	leaf, inner, ends, lanes := pl.leaf[:base], pl.inner, pl.runs[1:base+1], int32(base)
	peds, idxs := s.Ped, s.Idx
	u, stack := s.u, s.stack[:n+1]
	// Until sliced, the range's leaves — one run: the leaves lead the
	// node planes — read +Inf: a leaf the bound keeps out stays so.
	fill(peds[lo:hi], inf32)

	best, win := inf32, int32(-1)
	visited, chains := 0, 0
	stack[0] = cursor{} // the root: ȳ is its row of u
	t, q := 0, int32(0) // the root's first child is lane 0's top node
walk:
	for {
		// Row half, once per sibling chain: the children of the node at
		// depth t all read b, the last live row of its u. z = b·W is in
		// half-distance units, so the lookup is integer math on float bits.
		j := n - 1 - t
		c := &stack[t]
		bv, w := u[t*n+j], pr.W[j]
		zx, zy := bv.re*w, bv.im*w
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
		c.sx, c.sy = int32(dx&(dx-1))>>31, int32(dy&(dy-1))>>31
		// |dy| > |dx| as an integer compare of the magnitudes' bits
		// (monotone for non-negative floats), as 0 or 2: the offset row.
		c.swap2 = 2 * int32(uint32(int32(dx&^signBit)-int32(dy&^signBit))>>31)
		c.bx, c.by = cx+side-1, cy+side-1
		c.b, c.rii = bv, pr.Rii[j]
		chains++
		t++
		// Lanes past end are not in the chain: past the plan, or at the
		// leaves past the range, whose lanes the chain visits in order.
		end := lanes
		if t == n {
			end = int32(hi)
		}

		for {
			// The chain at depth t is done — run out, past end, or under a
			// parent the bound has since overtaken: back up a depth.
			if q >= end || stack[t-1].ped > best {
				if t--; t == 0 {
					break walk
				}
				q, end = inner[stack[t].at].sib(), lanes
				continue
			}
			j := n - t
			var v node
			i, g := 0, int(q) // the node's slot in inner, and in Ped and Idx
			if t == n {
				if v = leaf[q]; g < lo {
					q = v.sib()
					continue
				}
			} else {
				// Lane q's run ends at ends[q], its top node first: stepping
				// down moves one slot forward.
				i = int(ends[q]) - j
				v, g = inner[i], base+i
			}
			visited++

			// Rank half: the node's offset pair, applied to the parent's
			// square. Offsets are odd and centres even, so both sums are
			// even and the shift is the exact signed halving.
			c := &stack[t-1]
			e := v.kidx + c.swap2
			oa, ob := off[e], off[e+1]
			nx := (c.bx + ((oa ^ c.sx) - c.sx)) >> 1
			ny := (c.by + ((ob ^ c.sy) - c.sy)) >> 1
			if strict && (uint32(nx) >= uint32(side) || uint32(ny) >= uint32(side)) {
				peds[g], q = inf32, v.sib() // dead, and its subtree with it
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
			dr := c.b.re - c.rii*pt.re
			di := c.b.im - c.rii*pt.im
			d := c.ped + (dr*dr + di*di)
			peds[g], idxs[g] = d, k

			if t == n {
				// A completed leaf: the lower lane wins a tie, whatever the
				// order the walk reached the two in.
				if d <= best && (d < best || q < win) {
					best, win = d, q
				}
				q = v.sib()
				continue
			}
			if d > best {
				q = v.sib()
				continue
			}
			// Step down — to the first child, the node's own lane one level
			// lower — and push the symbol into the rows below: three
			// contiguous runs, the parent's rows, the child's and column j of
			// R above the diagonal.
			stack[t].at, stack[t].ped = int32(i), d
			src := u[(t-1)*n : (t-1)*n+j]
			dst := u[t*n : t*n+j]
			col := pr.R[j*n : j*n+j]
			for l := range dst {
				r, pv := col[l], src[l]
				dst[l] = c32{pv.re - (r.re*pt.re - r.im*pt.im), pv.im - (r.re*pt.im + r.im*pt.re)}
			}
			continue walk
		}
	}
	s.Visited, s.Chains = visited, chains
	return int(win), best
}
