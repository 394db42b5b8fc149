package core

import (
	"fmt"

	"flexcore/internal/cmatrix"
)

// This file implements the channel-rate fast path across channels: the
// coherence-aware position-vector cache (Options.PathReuse) and the
// frame-level PrepareAll/Select pipeline that prepares every subcarrier
// of an OFDM frame in one call.
//
// Both exploit the same property of §3.1.1: the selected path set E is
// a function of (R, σ²) only — never of the received signal — so it can
// be computed once per coherence interval and shared.

// reuseCache is one coherence base: the R factor and noise variance of
// a fresh-prepared channel with the path set selected for it — searched
// straight into it. A ReuseState keeps one per subcarrier. A coherent
// base serves a Prepare only if it also covers the path bound in force
// (pathStore.covers): callers test that first.
type reuseCache struct {
	pathStore
	valid  bool
	r      *cmatrix.Matrix // copy of the base R
	sigma2 float64
}

// similarR reports whether r is within thr of base in normalized
// Frobenius distance: ‖r−base‖_F ≤ thr·‖base‖_F. thr = 0 accepts only
// an exactly identical R.
//
//flexcore:noalloc
func similarR(base, r *cmatrix.Matrix, thr float64) bool {
	if base.Rows != r.Rows || base.Cols != r.Cols {
		return false
	}
	var diff2, norm2 float64
	for i, v := range r.Data {
		b := base.Data[i]
		d := v - b
		diff2 += real(d)*real(d) + imag(d)*imag(d)
		norm2 += real(b)*real(b) + imag(b)*imag(b)
	}
	return diff2 <= thr*thr*norm2
}

// match reports whether (r, sigma2) is coherent with the cached base
// (a valid one) under the relative tolerance thr.
//
//flexcore:noalloc
func (c *reuseCache) match(r *cmatrix.Matrix, sigma2, thr float64) bool {
	ds := sigma2 - c.sigma2
	if ds < 0 {
		ds = -ds
	}
	if ds > thr*c.sigma2 {
		return false
	}
	return similarR(c.r, r, thr)
}

// rebase makes (r, sigma2) the key of the path set the cache holds.
func (c *reuseCache) rebase(r *cmatrix.Matrix, sigma2 float64) {
	c.r = cmatrix.Reshape(c.r, r.Rows, r.Cols)
	copy(c.r.Data, r.Data)
	c.sigma2 = sigma2
	c.valid = true
}

// ReuseState carries PrepareAll's coherence bases across frames: one
// (R, σ², position-vector) base per subcarrier of the last prepared
// frame. Installed on a detector with SetReuseState, it lets a caller
// key the PathReuse cache by any identity it chooses — the serving
// layer keys it per user, so a user whose channel is static or slowly
// varying across frames skips the §3.1.1 candidate-position search on
// every re-sent H, not only within one frame. With ReuseThreshold = 0
// a hit requires a bit-identical (R, σ²), so reuse is provably
// output-neutral (DESIGN.md §9).
//
// A prepared frame shares the state's path sets instead of copying
// them — a hit detects out of the base's storage, a miss searches
// straight into it — so it is valid only until the state is next
// prepared against, by any detector, or Reset. A ReuseState must be
// installed on at most one detector at a time, and hand-offs between
// detectors must be externally synchronized (the serving layer's
// per-user FIFO sequencing provides both). Its bases carry the storing
// detector's backend state (the SoA descent plan), so it moves only
// between detectors of one Options.Backend. The zero value is ready to
// use; all storage is state-owned and regrows only past its high-water
// mark.
type ReuseState struct {
	slots []reuseCache
}

// Valid reports whether the state holds at least one subcarrier base.
func (st *ReuseState) Valid() bool {
	for i := range st.slots {
		if st.slots[i].valid {
			return true
		}
	}
	return false
}

// Reset invalidates every subcarrier base, keeping the arenas for
// reuse (the serving layer recycles evicted per-user states).
func (st *ReuseState) Reset() {
	for i := range st.slots {
		st.slots[i].valid = false
	}
}

// grow extends the state to at least n subcarrier slots; new slots hold
// no base.
func (st *ReuseState) grow(n int) {
	for len(st.slots) < n {
		st.slots = append(st.slots, reuseCache{})
	}
}

// prepSlot is one subcarrier's prepared channel state inside a frame:
// its QR factors, the per-level model its last search read (a hit
// builds none), and selected path set — the slot's own store (a search
// with no reuse state behind it, or a larger base's prefix under a path
// cap), the reuse state's (a hit on it or a search into it) or another
// slot's (a within-frame hit).
type prepSlot struct {
	qr    cmatrix.QRResult
	model Model
	set   *pathStore
	own   pathStore
}

// PrepareAll prepares a whole frame of per-subcarrier channels (same
// geometry, same noise variance) in one call, one pass in subcarrier
// order: the sorted QR, then — with Options.PathReuse — the coherence
// test, then the per-level model and the pre-processing tree search, or
// the alias that replaces both. A subcarrier within ReuseThreshold of
// the last fresh-prepared one aliases its position vectors instead of
// searching again (adjacent subcarriers inside the coherence bandwidth —
// the dominant OFDM case).
//
// With a ReuseState installed (SetReuseState), the coherence test also
// spans frames: each subcarrier first tries the previous frame's base
// for the same subcarrier — the sharper key: a static or slowly-varying
// channel hits on every subcarrier and skips every search on a re-sent
// H — then falls back to the within-frame chain, and the state is
// re-based on this frame's results as it goes. Under a path cap
// (SetPathCap) a base selected under a larger bound still hits — the
// slot takes its first paths — while a base cut shorter than the cap is
// passed over and replaced by this frame's search.
//
// Scalar Prepare is the one-subcarrier frame, so with PathReuse disabled
// the results are bit-identical to looping Prepare over the channels.
// PrepareAll leaves no subcarrier selected: call Select(k) before
// detecting. The frame is valid until the next Prepare/PrepareAll, or
// until an installed ReuseState is next prepared against or Reset.
//
//flexcore:noalloc
func (d *FlexCore) PrepareAll(hs []*cmatrix.Matrix, sigma2 float64) error {
	return d.prepareFrame(hs, sigma2, d.extReuse)
}

// prepareFrame is the one reuse-aware prepare: PrepareAll runs it against
// the installed ReuseState (nil for none), scalar Prepare against the
// detector's own one-slot state. Slot k of st is written only at
// iteration k and read only by the frame slots ≥ k that alias it.
//
//flexcore:noalloc
func (d *FlexCore) prepareFrame(hs []*cmatrix.Matrix, sigma2 float64, st *ReuseState) error {
	nr, n, err := validateFrameGeometry(hs)
	if err != nil {
		return err
	}
	d.n = n
	d.ensureScratch()
	if cap(d.frame) < len(hs) {
		grown := make([]prepSlot, len(hs))  //lint:ignore noalloc amortised: frame arena regrows only when the subcarrier count grows
		copy(grown, d.frame[:cap(d.frame)]) // keep the arenas already grown in old slots, beyond the last frame's too
		d.frame = grown
	}
	d.frame = d.frame[:len(hs)]

	reuse := d.opts.PathReuse
	if reuse && st != nil {
		st.grow(len(hs))
	} else {
		st = nil
	}
	base := -1 // last fresh-prepared subcarrier of this frame
	for k := range d.frame {
		s := &d.frame[k]
		d.qrws.SortedQRInto(hs[k], d.opts.Ordering, &s.qr)

		var own *reuseCache // the subcarrier's cross-frame base
		dst := &s.own       // where a search emits: in place into that base when there is one
		stHit, chainHit := false, false
		if st != nil {
			own = &st.slots[k]
			dst = &own.pathStore
			if own.valid && own.covers(d.npe) {
				d.countSimilarity(n)
				stHit = own.match(s.qr.R, sigma2, d.opts.ReuseThreshold)
			}
		}
		if reuse && !stHit && base >= 0 {
			d.countSimilarity(n)
			chainHit = similarR(d.frame[base].qr.R, s.qr.R, d.opts.ReuseThreshold)
		}

		switch {
		case stHit:
			// Alias the base — or, under a path cap below its size, copy its
			// first paths: the base stays whole for the uncapped frames after.
			s.set = dst
			if d.npe < len(dst.paths) {
				s.own.copyFrom(dst, d.npe)
				s.set = &s.own
			}
			d.ppOps.CacheHits++
		case chainHit:
			s.set = d.frame[base].set
			if own != nil {
				own.copyFrom(s.set, len(s.set.paths))
			}
			d.ppOps.CacheHits++
		default:
			base = k
			s.set = dst
			NewModelInto(&s.model, s.qr.R, sigma2, d.cons)
			stats := d.finder.find(&s.model, d.npe, d.opts.Threshold, dst, d.useSoA())
			d.ppOps.RealMuls += stats.RealMuls
			d.ppOps.Expanded += stats.Expanded
			if reuse {
				d.ppOps.CacheMisses++
			}
		}
		// Key the cross-frame base on what it now holds; a subcarrier that
		// hit it keeps it untouched — the base R stays pinned until a miss.
		if own != nil && !stHit {
			own.rebase(s.qr.R, sigma2)
		}

		d.ops.Prepares++
		muls := int64(4 * nr * n * n)
		d.ops.RealMuls += muls
		d.ops.FLOPs += 2 * muls
	}
	d.ppOps.CumulativeProb = d.frame[len(d.frame)-1].set.cum
	return nil
}

// validateFrameGeometry checks that a PrepareAll frame is non-empty and
// that every subcarrier shares one tall geometry, returning it. It is
// the cold error path of PrepareAll, kept outside the noalloc-annotated
// steady state because its error formatting necessarily allocates.
func validateFrameGeometry(hs []*cmatrix.Matrix) (nr, n int, err error) {
	if len(hs) == 0 {
		return 0, 0, fmt.Errorf("core: PrepareAll needs at least one channel")
	}
	nr, n = hs[0].Rows, hs[0].Cols
	if nr < n {
		return 0, 0, fmt.Errorf("core: need receive antennas ≥ streams, got %d×%d", nr, n)
	}
	for k, h := range hs {
		if h.Rows != nr || h.Cols != n {
			return 0, 0, fmt.Errorf("core: PrepareAll channels must share one geometry, subcarrier %d is %d×%d (frame is %d×%d)",
				k, h.Rows, h.Cols, nr, n)
		}
	}
	return nr, n, nil
}

// FrameSize returns the number of subcarriers of the prepared frame: the
// last PrepareAll's, 1 after a scalar Prepare, 0 before either.
func (d *FlexCore) FrameSize() int { return len(d.frame) }

// Select activates subcarrier k of the prepared frame:
// subsequent Detect/DetectBatch/DetectSoft calls run against its
// channel. It is a pointer swap — O(1), no math, no allocation.
//
//flexcore:noalloc
func (d *FlexCore) Select(k int) error {
	if k < 0 || k >= len(d.frame) {
		return fmt.Errorf("core: Select(%d) outside the prepared frame of %d subcarriers", k, len(d.frame)) //lint:ignore noalloc cold validation path, never taken in steady state
	}
	s := &d.frame[k]
	d.qr = &s.qr
	d.paths = s.set.paths
	d.soa.prep.Plan = &s.set.plan
	d.ppOps.CumulativeProb = s.set.cum
	d.soa.dirty = true
	return nil
}
