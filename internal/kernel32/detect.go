package kernel32

import "math"

const signBit = 1 << 31

// Descend walks the prefix trie of the selected paths (pr.Plan) from the
// top level down, deciding each distinct node that can still hold the
// answer once: it reads the node's interference-cancelled observation b
// from its parent's plane, forms the effective received point with one
// reciprocal multiply (no complex division), picks the node's rank-th
// closest symbol with the inlined integer slicer, extends the parent's
// partial Euclidean distance, and then cancels the decided symbol out
// of every row below in push form — u(l) = parent.u(l) − R(l,j)·sym for
// l < j — so the node's children find their b ready. A suffix shared by
// many paths is sliced and cancelled once; the leaves are one per lane.
//
// The walk is bounded. Lane lo is walked alone first, through the same
// code, and its distance B bounds the rest: a node whose partial
// distance exceeds B is decided but not cancelled, and nothing below it
// is sliced. Partial distances never decrease down a path (a
// non-negative float32 addend never rounds a sum down) and B is the
// distance of a lane of the range, so every leaf under a pruned node is
// strictly worse than the range's minimum: the returned lane and
// distance are the unbounded walk's, bit for bit. A NaN or +Inf bound
// (a NaN input, a deactivated first lane) compares false and prunes
// nothing. DESIGN.md §11.2 has the argument and the worst case.
//
// The node step is branch-free where the data decides (the sign of the
// offset from the square centre, the diagonal swap, the clamp, the
// bound): coin flips per node, and a mispredicted branch costs several
// times the step's arithmetic.
//
// strict selects the paper's literal §3.2 deactivation: a candidate
// outside the constellation kills the node and the subtree under it;
// the default saturates the slicer per axis. A dead or pruned node has
// no column in its level's cancellation plane and the leaves below it
// read +Inf. With pr.Degenerate the caller must skip Descend and take
// the fallback, like the scalar backend's per-level rii ≤ 0 bailout.
//
// It returns the best lane of [lo, hi) (ties resolved to the lowest
// lane index, matching the scalar first-strict-improvement scan) and
// its distance; lane −1 means the range is empty or all of it
// deactivated. Only the leaves, the bound and the argmin are restricted
// to the range; the levels above are walked for every lane of the plan.
//
// A plan staged through EnsureRanks is compiled here on first use;
// callers that share one Prep between concurrent descents must install
// a compiled Plan beforehand, as internal/core does.
//
//flexcore:noalloc
func Descend(pr *Prep, sl *Slicer32, s *Scratch, lo, hi int, strict bool) (lane int, ped float32) {
	pl := pr.plan()
	s.fit(pl)
	s.Visited, s.bound = 0, inf32
	if lo >= hi {
		return -1, inf32
	}
	leaves := s.Ped[pl.start[pr.N]:]

	// Lane lo's node at every depth, leaf upwards, then its distance.
	at := int32(lo)
	for t := pr.N; t >= 1; t-- {
		s.spine[t] = at
		at = pl.nodes[pl.start[t]+at].parent
	}
	s.walk(pr, sl, lo, hi, strict, inf32, s.spine)
	s.bound = leaves[lo]
	s.walk(pr, sl, lo, hi, strict, s.bound, nil)

	// Argmin over the range's leaves; ties resolve to the lowest lane
	// like the scalar first-strict-improvement scan (dead lanes are +Inf
	// and a NaN distance — possible only from a NaN input — never wins,
	// the scalar backend's behaviour too).
	lane = -1
	best := inf32
	for p, d := range leaves[lo:hi] {
		if d < best {
			best = d
			lane = lo + p
		}
	}
	return lane, best
}

// walk is the one descent body: under bound, every node of the levels
// above the leaves and leaves [lo, hi) — or, given a spine, just that
// one node per depth.
//
//flexcore:noalloc
func (s *Scratch) walk(pr *Prep, sl *Slicer32, lo, hi int, strict bool, bound float32, spine []int32) {
	pl, n := s.plan, pr.N
	side, fside := sl.side, sl.fside
	off, pts := sl.off, sl.pts
	start := pl.start
	visited := 0

	s.Ped[0], s.col[0] = 0, 0
	// The root's plane is ȳ itself: N rows of one column.
	pu, pcnt := s.yb, 1
	for t := 1; t <= n; t++ {
		j := n - t
		a, b := int(start[t]), int(start[t+1])
		nd := pl.nodes[a:b]
		peds := s.Ped[a:b]
		peds = peds[:len(nd)]
		idxs := s.Idx[a:b]
		idxs = idxs[:len(nd)]
		col := s.col[a:b]
		col = col[:len(nd)]
		cols := s.cols[:len(nd)]
		pped := s.Ped[start[t-1]:a]
		pcol := s.col[start[t-1]:a]
		pcol = pcol[:len(pped)]
		bs := pu[j*pcnt : (j+1)*pcnt]

		// Slice and accumulate: z = b·W is already in half-distance
		// units, so the lookup is integer math on float bits.
		w, rii := pr.W[j], pr.Rii[j]
		q0, q1 := 0, len(nd)
		if j == 0 {
			q0, q1 = lo, hi
		}
		if spine != nil {
			q0, q1 = int(spine[t]), int(spine[t])+1
		}
		live := 0
		for q := q0; q < q1; q++ {
			v := nd[q]
			pc := pcol[v.parent]
			if pc < 0 {
				peds[q], col[q] = inf32, -1 // under a dead or pruned node: not sliced
				continue
			}
			visited++
			bv := bs[pc]
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
			// Offset from the square centre. Its sign mask is −1 exactly
			// when d < 0: x&(x−1) keeps the sign bit of every negative
			// pattern except −0's, which must count as non-negative.
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
			// Offsets are odd and centres even, so both sums are even and
			// the shift is the exact signed halving.
			nx := (cx + ((oa ^ sx) - sx) + side - 1) >> 1
			ny := (cy + ((ob ^ sy) - sy) + side - 1) >> 1
			if strict && (uint32(nx) >= uint32(side) || uint32(ny) >= uint32(side)) {
				peds[q], col[q] = inf32, -1
				continue
			}
			// Saturate each axis to [0, side): v &^ (v>>31) is max(v, 0),
			// and the same mask takes min(v, side−1) off the excess.
			nx &^= nx >> 31
			ny &^= ny >> 31
			ex, ey := nx-side+1, ny-side+1
			nx -= ex &^ (ex >> 31)
			ny -= ey &^ (ey >> 31)
			k := ny*side + nx
			pt := pts[k]
			dr := bv.re - rii*pt.re
			di := bv.im - rii*pt.im
			d := pped[v.parent] + (dr*dr + di*di)
			peds[q] = d
			idxs[q] = k
			// Past the bound the node takes no column — a coin flip, so
			// the column is written regardless and kept by conditional move.
			c, keep := int32(live), 1
			if d > bound {
				c, keep = -1, 0
			}
			col[q] = c
			cols[live] = column{pt, pc}
			live += keep
		}

		// Push the live columns' symbols into the rows below: the R entry
		// is a broadcast scalar and the column loop writes one contiguous
		// run per row, gathering only the parent's entry.
		cols = cols[:live]
		cu := s.u[t&1][:j*live]
		for l := 0; l < j; l++ {
			rr, ri := pr.Rre[l*n+j], pr.Rim[l*n+j]
			src := pu[l*pcnt : (l+1)*pcnt]
			dst := cu[l*live : (l+1)*live]
			dst = dst[:len(cols)]
			for c, v := range cols {
				pv := src[v.parent]
				dst[c] = c32{pv.re - (rr*v.sym.re - ri*v.sym.im), pv.im - (rr*v.sym.im + ri*v.sym.re)}
			}
		}
		pu, pcnt = cu, live
	}
	s.Visited += visited
}
