package core

import (
	"fmt"
	"math"

	"flexcore/internal/cmatrix"
)

// This file implements the channel-rate fast path across channels: the
// coherence-aware position-vector cache (Options.PathReuse) and the
// frame-level PrepareAll/Select pipeline that prepares every subcarrier
// of an OFDM frame in one call.
//
// Both exploit the same property of §3.1.1: the selected path set E is
// a function of the channel only — never of the received signal — and
// Eq. 4 reads the channel through one value per level, the level key
// (levelKey). A subcarrier whose key equals its base's — the same
// subcarrier's last search — reuses that search's path set exactly.

// reuseCache is one coherence base: the level key of a fresh-prepared
// channel with the path set selected for it — searched straight into
// it. A ReuseState keeps one per subcarrier. A base with the same key
// serves a Prepare only if it also covers the path bound in force
// (pathStore.covers): callers test that first.
type reuseCache struct {
	pathStore
	valid bool
	key   []float64
}

// sameKey reports whether two level keys are bit-identical. Equal keys
// build bit-identical models (fromKey), so a hit cannot change a path
// set.
//
//flexcore:noalloc
func sameKey(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i, v := range a {
		if math.Float64bits(v) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// rebase makes key the key of the path set the cache holds.
func (c *reuseCache) rebase(key []float64) {
	c.key = append(c.key[:0], key...)
	c.valid = true
}

// ReuseState carries PrepareAll's coherence bases across frames: one
// (level key, position-vector) base per subcarrier of the last prepared
// frame. Installed on a detector with SetReuseState, it lets a caller
// key the PathReuse cache by any identity it chooses — the serving
// layer keys it per user, so a user whose channel is static across
// frames skips the §3.1.1 candidate-position search on every re-sent
// H. A hit requires a bit-identical level key, so reuse is
// output-neutral (DESIGN.md §9).
//
// A prepared frame shares the state's path sets instead of copying
// them — a hit detects out of the base's storage, a miss searches
// straight into it — so it is valid only until the state is next
// prepared against, by any detector, or Reset. Slot k is read and
// written only by the prepare of subcarrier k, so the lanes of one
// frame may install one state and prepare its subcarriers concurrently
// through PrepareAt, once the state is grown to the frame (Grow).
// Otherwise a ReuseState must be installed on at most one detector at a
// time, and hand-offs between detectors must be externally synchronized
// (the serving layer's per-user FIFO sequencing and the frame's join
// provide both). A base holds its path set as the descent plan the
// search wrote, whatever the storing detector's backend, so a state
// moves between detectors of either Options.Backend (of one
// constellation: the key is scaled by its d).
// The zero value is ready to use; all storage is state-owned and regrows
// only past its high-water mark.
type ReuseState struct {
	slots []reuseCache
}

// Reset invalidates every subcarrier base, keeping the arenas for
// reuse (the serving layer recycles evicted per-user states).
func (st *ReuseState) Reset() {
	for i := range st.slots {
		st.slots[i].valid = false
	}
}

// Grow extends the state to at least n subcarrier slots; new slots hold
// no base. PrepareAll grows the state itself; detectors that prepare one
// frame's subcarriers concurrently (PrepareAt) need it grown first.
func (st *ReuseState) Grow(n int) {
	for len(st.slots) < n {
		st.slots = append(st.slots, reuseCache{})
	}
}

// prepSlot is one subcarrier's prepared channel state inside a frame:
// its QR factors, its level key, the per-level model its last search
// read (a hit builds none), and selected path set — the slot's own
// store (a search with no reuse state behind it, or a larger base's
// prefix under a path cap) or the reuse state's (a hit on it or a
// search into it).
type prepSlot struct {
	qr    cmatrix.QRResult
	key   []float64
	model Model
	set   *pathStore
	own   pathStore
}

// PrepareAll prepares a whole frame of per-subcarrier channels (same
// geometry, same noise variance) in one call, one pass in subcarrier
// order: the sorted QR and the level key, then — with Options.PathReuse
// and a ReuseState installed (SetReuseState) — the key test against
// the previous frame's base for the same subcarrier, then the per-level
// model and the pre-processing tree search, or the alias that replaces
// both. A static channel hits on every subcarrier and skips every
// search on a re-sent H, and a miss re-bases the state on this frame's
// search. Under a path cap (SetPathCap) a base selected under a larger
// bound still hits — the slot takes its first paths — while a base cut
// shorter than the cap is passed over and replaced by this frame's
// search. Without a ReuseState no subcarrier reads another's search.
//
// Scalar Prepare is the one-subcarrier frame, so without a ReuseState
// the results are bit-identical to looping Prepare over the channels.
// PrepareAll leaves no subcarrier selected: call Select(k) before
// detecting. The frame is valid until the next Prepare/PrepareAll/
// PrepareAt, or until an installed ReuseState is next prepared against
// or Reset.
//
//flexcore:noalloc
func (d *FlexCore) PrepareAll(hs []*cmatrix.Matrix, sigma2 float64) error {
	return d.prepareFrame(hs, sigma2, d.extReuse)
}

// PrepareAt prepares subcarrier k of the frame hs, and only it, as a
// one-slot prepared frame, and selects it: the way phy's FrameDetector
// prepares every subcarrier of a frame, on whichever lane claims it. It
// checks only subcarrier k's geometry; CheckFrame checks the frame's.
// With a ReuseState installed, slot k of the state serves and stores
// subcarrier k, exactly as under PrepareAll, and no other slot is read
// or written: detectors preparing distinct subcarriers of one frame
// against one state may run concurrently. The state must already hold
// len(hs) slots (ReuseState.Grow), grown before those detectors start.
// The slot stays valid until the next Prepare/PrepareAll/PrepareAt.
//
//flexcore:noalloc
func (d *FlexCore) PrepareAt(hs []*cmatrix.Matrix, k int, sigma2 float64) error {
	if k < 0 || k >= len(hs) {
		return errSlot(len(hs), k)
	}
	if err := CheckFrame(hs[k : k+1]); err != nil {
		return err
	}
	st := d.reuseState(d.extReuse)
	if st != nil && len(st.slots) < len(hs) {
		return errShortState(len(st.slots), len(hs))
	}
	d.startFrame(hs[k].Cols, 1)
	d.prepareSlot(&d.frame[0], k, hs[k], sigma2, st)
	return d.Select(0)
}

// errSlot is PrepareAt's cold error for a subcarrier outside the frame.
func errSlot(frame, k int) error {
	return fmt.Errorf("core: PrepareAt(k=%d) outside a %d-subcarrier frame", k, frame)
}

// errShortState is PrepareAt's cold error for a ReuseState not grown to
// the frame.
func errShortState(slots, frame int) error {
	return fmt.Errorf("core: PrepareAt needs a ReuseState grown to the frame's %d subcarriers, it holds %d", frame, slots)
}

// prepareFrame is the one reuse-aware prepare: PrepareAll runs it against
// the installed ReuseState (nil for none), scalar Prepare against the
// detector's own one-slot state.
//
//flexcore:noalloc
func (d *FlexCore) prepareFrame(hs []*cmatrix.Matrix, sigma2 float64, st *ReuseState) error {
	if err := CheckFrame(hs); err != nil {
		return err
	}
	st = d.reuseState(st)
	if st != nil {
		st.Grow(len(hs))
	}
	d.startFrame(hs[0].Cols, len(hs))
	for k, h := range hs {
		d.prepareSlot(&d.frame[k], k, h, sigma2, st)
	}
	return nil
}

// reuseState returns st when PathReuse keys a search by it, else nil.
//
//flexcore:noalloc
func (d *FlexCore) reuseState(st *ReuseState) *ReuseState {
	if !d.opts.PathReuse {
		return nil
	}
	return st
}

// startFrame begins a prepared frame of n streams and slots subcarrier
// slots. Growing keeps the arenas already grown in old slots, beyond the
// last frame's too; no slot of the new frame is prepared yet, so nothing
// points into the old array.
//
//flexcore:noalloc
func (d *FlexCore) startFrame(n, slots int) {
	d.n = n
	d.ensureScratch()
	if cap(d.frame) < slots {
		grown := make([]prepSlot, slots)
		copy(grown, d.frame[:cap(d.frame)])
		d.frame = grown
	}
	d.frame = d.frame[:slots]
}

// prepareSlot prepares subcarrier k, channel h, into the frame slot s
// against slot k of st (nil for none), which only this prepare reads or
// writes.
//
//flexcore:noalloc
func (d *FlexCore) prepareSlot(s *prepSlot, k int, h *cmatrix.Matrix, sigma2 float64, st *ReuseState) {
	d.qrws.SortedQRInto(h, cmatrix.OrderSQRD, &s.qr)
	s.key = levelKey(s.key, s.qr.R, sigma2, d.cons)

	var base *reuseCache // the subcarrier's cross-frame base
	s.set = &s.own       // where a search emits: in place into that base when there is one
	if st != nil {
		base = &st.slots[k]
		s.set = &base.pathStore
	}
	if base != nil && base.valid && base.covers(d.npe) && sameKey(base.key, s.key) {
		// Alias the base — or, under a path cap below its size, copy its
		// first paths: the base stays whole for the uncapped frames after.
		if d.npe < base.count() {
			s.own.copyFrom(&base.pathStore, d.npe)
			s.set = &s.own
		} else if d.useSoA() {
			// The base's plan was written frames ago and has likely left
			// the cache: stream it in now, its lines all at once, rather
			// than one miss per step of the descent's walk.
			d.soa.warm += base.plan.Touch()
		}
		d.ppOps.CacheHits++
	} else {
		s.model.fromKey(s.key, d.cons)
		stats := d.finder.find(&s.model, d.npe, d.opts.Threshold, s.set)
		d.ppOps.RealMuls += stats.RealMuls
		d.ppOps.Expanded += stats.Expanded
		if d.opts.PathReuse {
			d.ppOps.CacheMisses++
		}
		if base != nil {
			base.rebase(s.key) // key the base on what it now holds
		}
	}

	d.ppOps.ActivePaths += int64(s.set.count())
	d.ops.Prepares++
	muls := int64(4 * h.Rows * d.n * d.n)
	d.ops.RealMuls += muls
	d.ops.FLOPs += 2 * muls
}

// CheckFrame returns PrepareAll's error for the frame hs, or nil: a
// frame must be non-empty, and every subcarrier must share one tall
// geometry. PrepareAt checks only its own subcarrier, so a caller that
// prepares a frame one subcarrier at a time checks the whole frame here
// first. It is the cold error path, kept outside the noalloc-annotated
// steady state because its error formatting necessarily allocates.
func CheckFrame(hs []*cmatrix.Matrix) error {
	if len(hs) == 0 {
		return fmt.Errorf("core: PrepareAll needs at least one channel")
	}
	nr, n := hs[0].Rows, hs[0].Cols
	if nr < n {
		return fmt.Errorf("core: need receive antennas ≥ streams, got %d×%d", nr, n)
	}
	for k, h := range hs {
		if h.Rows != nr || h.Cols != n {
			return fmt.Errorf("core: PrepareAll channels must share one geometry, subcarrier %d is %d×%d (frame is %d×%d)",
				k, h.Rows, h.Cols, nr, n)
		}
	}
	return nil
}

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
	d.set = s.set
	d.soa.prep.Plan = &s.set.plan
	d.soa.dirty = true
	return nil
}
