package kernel32

import "math"

const signBit = 1 << 31

// Descend walks the prefix trie of the selected paths (pr.Plan) from the
// top level down, deciding every distinct node once: it reads the
// node's interference-cancelled observation b from its parent's plane,
// forms the effective received point with one reciprocal multiply (no
// complex division), picks the node's rank-th closest symbol with the
// inlined integer slicer, extends the parent's partial Euclidean
// distance, and then cancels the decided symbol out of every row below
// in push form — u(l) = parent.u(l) − R(l,j)·sym for l < j — so the
// node's children find their b ready. A suffix shared by many paths is
// sliced and cancelled once, not once per path; the leaves are one per
// lane, so the result is the scalar evalPath loop's, lane for lane.
//
// The node step is branch-free where the data decides (the sign of the
// offset from the square centre, the diagonal swap, the clamp): those
// are coin flips per node, and a mispredicted branch costs several
// times the step's arithmetic.
//
// strict selects the paper's literal §3.2 deactivation: a candidate
// outside the constellation kills the node, marked by a +Inf distance
// and a neutral symbol, and the whole subtree under it inherits +Inf;
// the default saturates the slicer per axis. With pr.Degenerate the
// caller must skip Descend entirely and take the fallback, exactly like
// the scalar backend's per-level rii ≤ 0 bailout.
//
// It returns the best lane of [lo, hi) (ties resolved to the lowest
// lane index, matching the scalar first-strict-improvement scan) and
// its distance; lane −1 means every lane of the range deactivated. The
// levels above the leaves are always walked whole; only the leaves and
// the argmin are restricted to the range.
//
// A plan staged through EnsureRanks is compiled here on first use;
// callers that share one Prep between concurrent descents must install
// a compiled Plan beforehand, as internal/core does.
//
//flexcore:noalloc
func Descend(pr *Prep, sl *Slicer32, s *Scratch, lo, hi int, strict bool) (lane int, ped float32) {
	pl := pr.plan()
	s.fit(pl) //lint:ignore noalloc amortised: the inlined arena helper allocates only when a plan outgrows every earlier one
	n := pr.N
	side, fside := sl.side, sl.fside
	off, pts := sl.off, sl.pts
	start := pl.start

	s.Ped[0] = 0
	// The root's plane is ȳ itself: N rows of one node.
	pu, pcnt := s.yb, 1
	for t := 1; t <= n; t++ {
		j := n - t
		a, b := int(start[t]), int(start[t+1])
		nd := pl.nodes[a:b]
		cnt := len(nd)
		peds := s.Ped[a:b]
		peds = peds[:len(nd)]
		idxs := s.Idx[a:b]
		idxs = idxs[:len(nd)]
		sym := s.sym[:len(nd)]
		pped := s.Ped[start[t-1]:a]
		bs := pu[j*pcnt : (j+1)*pcnt]
		bs = bs[:len(pped)]

		// Slice and accumulate: z = b·W is already in half-distance
		// units, so the lookup is integer math on float bits.
		w := pr.W[j]
		rii := pr.Rii[j]
		q0, q1 := 0, cnt
		if j == 0 {
			q0, q1 = lo, hi
		}
		for q := q0; q < q1; q++ {
			v := nd[q]
			bv := bs[v.parent]
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
				// Deactivated node: +Inf distance, neutral symbol so the
				// levels below stay finite.
				peds[q] = inf32
				idxs[q] = 0
				sym[q] = c32{}
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
			peds[q] = pped[v.parent] + (dr*dr + di*di)
			idxs[q] = k
			sym[q] = pt
		}

		// Push the decided symbols into the rows below: the R entry is a
		// broadcast scalar and the node loop writes one contiguous run per
		// row, gathering only the parent's entry.
		cu := s.u[t&1][:j*cnt]
		for l := 0; l < j; l++ {
			rr := pr.Rre[l*n+j]
			ri := pr.Rim[l*n+j]
			src := pu[l*pcnt : (l+1)*pcnt]
			dst := cu[l*cnt : (l+1)*cnt]
			dst = dst[:len(nd)]
			for q, v := range nd {
				pv := src[v.parent]
				sv := sym[q]
				dst[q] = c32{pv.re - (rr*sv.re - ri*sv.im), pv.im - (rr*sv.im + ri*sv.re)}
			}
		}
		pu, pcnt = cu, cnt
	}

	// Argmin over the range's leaves; ties resolve to the lowest lane
	// like the scalar first-strict-improvement scan (deactivated lanes
	// are +Inf and a NaN distance — possible only from a NaN input —
	// never wins, the scalar backend's behaviour too).
	lane = -1
	best := inf32
	for p, d := range s.Ped[int(start[n])+lo : int(start[n])+hi] {
		if d < best {
			best = d
			lane = lo + p
		}
	}
	return lane, best
}
