package kernel32

import (
	"flexcore/internal/constellation"
)

// Slicer32 is the float32 rendition of the predefined k-th-closest
// symbol ordering (constellation.KthClosest, paper §3.2/Fig. 6): the
// canonical-triangle offset table flattened into an int32 table plus the
// symbol alphabet as float32 (re, im) pairs, so the detect kernel can
// perform the whole lookup with integer arithmetic and two float32
// multiplies — no division, no float64 rounding calls.
//
// Lookups take the effective point in half-minimum-distance units
// (z/scale); the detect kernel folds the 1/scale factor into the
// per-level reciprocal, so the units conversion costs nothing extra.
// A Slicer32 is immutable after construction and safe to share.
type Slicer32 struct {
	side  int32
	m     int32
	fside float32 // float32(side)

	// off holds the canonical offsets, four entries per rank: row
	// 4(k−1)+2·swap is rank k's (x, y) offset pair, already exchanged
	// when swap = 1 (the point lies above its square's diagonal), so
	// Descend's branch-free step indexes it by (rank, swap).
	off []int32
	pts []c32 // symbol values (unit-energy units), index-major
}

// NewSlicer32 builds the float32 slicer planes for cons from its public
// ordering table, so both backends share one ordering definition.
func NewSlicer32(cons *constellation.Constellation) *Slicer32 {
	offs := cons.OrderOffsets()
	pts := cons.Points()
	s := &Slicer32{
		side:  int32(cons.Side()),
		m:     int32(cons.Size()),
		fside: float32(cons.Side()),
		off:   make([]int32, 4*len(offs)),
		pts:   make([]c32, len(pts)),
	}
	for k, o := range offs {
		a, b := int32(o[0]), int32(o[1])
		copy(s.off[4*k:], []int32{a, b, b, a})
	}
	for i, p := range pts {
		s.pts[i] = c32{float32(real(p)), float32(imag(p))}
	}
	return s
}

// Side returns the per-axis point count.
func (s *Slicer32) Side() int { return int(s.side) }

// Point returns the float32 symbol value planes for index idx.
//
//flexcore:noalloc
func (s *Slicer32) Point(idx int32) (re, im float32) { return s.pts[idx].re, s.pts[idx].im }

// round32 rounds half away from zero, matching math.Round on the float32
// grid (int32 conversion truncates toward zero).
//
//flexcore:noalloc
func round32(x float32) int32 {
	if x >= 0 {
		return int32(x + 0.5)
	}
	return -int32(0.5 - x)
}

// clampAxis32 saturates an axis index to [0, side).
//
//flexcore:noalloc
func clampAxis32(i, side int32) int32 {
	if i < 0 {
		return 0
	}
	if i >= side {
		return side - 1
	}
	return i
}

// Kth returns the index of the (approximately) k-th closest symbol to
// the point (zx, zy) given in half-minimum-distance units, k ∈ [1, m].
// ok is false when the predefined ordering points outside the
// constellation — the paper's deactivation case. It mirrors
// constellation.KthClosest step for step; only the float32 rounding of
// the inputs can make the two disagree (near midpoint-grid boundaries).
//
//flexcore:noalloc
func (s *Slicer32) Kth(zx, zy float32, k int32) (idx int32, ok bool) {
	nx, ny := s.rawAxes(zx, zy, k)
	if uint32(nx) >= uint32(s.side) || uint32(ny) >= uint32(s.side) {
		return 0, false
	}
	return ny*s.side + nx, true
}

// KthClamped is Kth with per-axis saturation: out-of-constellation
// candidates clamp each axis to the nearest edge instead of
// deactivating — constellation.KthClosestClamped in float32.
//
//flexcore:noalloc
func (s *Slicer32) KthClamped(zx, zy float32, k int32) int32 {
	nx, ny := s.rawAxes(zx, zy, k)
	if uint32(nx) >= uint32(s.side) || uint32(ny) >= uint32(s.side) {
		nx = clampAxis32(nx, s.side)
		ny = clampAxis32(ny, s.side)
	}
	return ny*s.side + nx
}

// rawAxes computes the (possibly out-of-range) axis indices of the
// rank-k candidate: nearest midpoint-grid square, canonicalisation into
// the stored triangle, signed offset application.
//
//flexcore:noalloc
func (s *Slicer32) rawAxes(zx, zy float32, k int32) (nx, ny int32) {
	mx := round32((zx + s.fside) * 0.5)
	my := round32((zy + s.fside) * 0.5)
	cx := 2*mx - s.side
	cy := 2*my - s.side
	dx := zx - float32(cx)
	dy := zy - float32(cy)
	sx, sy := int32(1), int32(1)
	if dx < 0 {
		sx = -1
		dx = -dx
	}
	if dy < 0 {
		sy = -1
		dy = -dy
	}
	oa := s.off[4*(k-1)]
	ob := s.off[4*(k-1)+1]
	if dy > dx {
		oa, ob = ob, oa
	}
	nx = (cx + sx*oa + s.side - 1) / 2
	ny = (cy + sy*ob + s.side - 1) / 2
	return nx, ny
}
