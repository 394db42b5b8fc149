package core

import (
	"flexcore/internal/kernel32"
)

// This file wires the reduced-precision SoA backend (internal/kernel32,
// DESIGN.md §11) into the detector: Options.Backend == BackendSoA32
// routes the detect hot path through the float32 trie kernel. The
// conversion happens at narrow boundaries — a fresh path search compiles
// its paths into a descent plan that then travels with them; Prepare and
// Select mark the channel planes stale and the first detection rebuilds
// them; detection results convert back to the public []int form — so
// the API, the OpCount accounting and the PreprocessStats contract are
// identical across backends.
//
// ExactSlicer detections always run the scalar complex128 arithmetic
// regardless of Backend: the exact sort-based slicer is a verification
// mode, not a hot path, and its ML-equivalence proofs are stated for the
// reference arithmetic.

// soaState is the detector's SoA-backend state: the per-channel planes
// with the active descent plan, the immutable slicer, the descent
// scratch, and the staleness flag that defers the channel-plane
// conversion to the first detection.
type soaState struct {
	prep    kernel32.Prep
	slicer  *kernel32.Slicer32
	scratch kernel32.Scratch
	dirty   bool
}

// useSoA reports whether detection runs on the SoA float32 kernel.
//
//flexcore:noalloc
func (d *FlexCore) useSoA() bool {
	return d.opts.Backend == BackendSoA32 && !d.opts.ExactSlicer
}

// soaRefresh rebuilds the float32 channel planes from the active R
// factor after Prepare or Select marked them stale. The descent plan is
// already in place — Prepare and Select install it by pointer — so this
// is all the per-channel work the backend has.
//
//flexcore:noalloc
func (d *FlexCore) soaRefresh() {
	if !d.soa.dirty {
		return
	}
	if d.soa.slicer == nil {
		d.soa.slicer = kernel32.NewSlicer32(d.cons)
	}
	d.soa.prep.SetChannel(d.qr.R, 1/d.cons.Scale())
	d.soa.dirty = false
}

// soaDetectOne runs one full detection on the SoA kernel, writing the
// unpermuted result into out. It reports whether the clamped-SIC
// fallback resolved the vector — the scalar detectOne contract. The
// whole path set descends in one Descend call. The complex128 scratch
// (ybar/idx/sym) stays in play for the ȳ rotation and the fallback, both
// of which are shared with the scalar backend.
//
//flexcore:noalloc
func (d *FlexCore) soaDetectOne(y []complex128, out []int) bool {
	d.soaRefresh()
	s, idx, sym := &d.soa.scratch, d.idx, d.sym
	yb := d.qr.YbarInto(y, d.ybar)
	P := len(d.paths)
	if P == 0 || d.soa.prep.Degenerate {
		// A non-positive diagonal deactivates every path at that level in
		// the scalar backend too: straight to the fallback.
		d.clampedSICInto(yb, idx, sym)
		d.qr.UnpermuteIntsInto(idx, out)
		return true
	}
	s.Ensure(d.n, P)
	s.SetYbar(yb)
	lane, _ := kernel32.Descend(&d.soa.prep, d.soa.slicer, s, 0, P, d.opts.StrictDeactivation)
	if lane < 0 {
		d.clampedSICInto(yb, idx, sym)
		d.qr.UnpermuteIntsInto(idx, out)
		return true
	}
	s.GatherIdx(lane, d.best)
	d.qr.UnpermuteIntsInto(d.best, out)
	return false
}
