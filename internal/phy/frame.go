package phy

import (
	"errors"

	"flexcore/internal/cmatrix"
	"flexcore/internal/core"
	"flexcore/internal/detector"
)

// FrameDetector runs any detector over whole uplink frames — one
// channel matrix per subcarrier, a burst of OFDM symbols per
// subcarrier. It is the repo's one frame loop: the serving layer
// (one per shard), bench/, the link simulator (one per packet worker)
// and the waveform receiver all prepare and detect frames through it.
// A detector implementing FramePreparer (FlexCore, DESIGN.md §9) runs
// its channel-rate PrepareAll/Select; any other detector is prepared
// one subcarrier at a time by Select. Decisions are bit-identical to
// looping Prepare+Detect per subcarrier either way: FlexCore's Prepare
// is the one-subcarrier PrepareAll.
//
// A FrameDetector is not safe for concurrent use (detectors are
// stateful across Prepare/Detect); run one per goroutine or shard.
type FrameDetector struct {
	det    detector.Detector
	batch  detector.BatchDetector
	frame  FramePreparer
	rep    ActivePathReporter
	pre    preprocessReporter
	reuser ReuseCarrier
	capper PathCapper

	hs     []*cmatrix.Matrix // the frame Select prepares per subcarrier (no FramePreparer)
	sigma2 float64

	activeSum float64
	activeN   int64
}

// FramePreparer is implemented by detectors that prepare a whole frame
// of per-subcarrier channels in one call (FlexCore's channel-rate fast
// path); Select activates one prepared subcarrier for Detect.
type FramePreparer interface {
	PrepareAll(hs []*cmatrix.Matrix, sigma2 float64) error
	Select(k int) error
}

// ActivePathReporter is implemented by detectors (a-FlexCore) that
// activate a channel-dependent subset of their processing elements.
type ActivePathReporter interface {
	ActivePaths() int
}

// preprocessReporter is implemented by detectors exposing
// pre-processing counters (FlexCore).
type preprocessReporter interface {
	PreprocessStats() core.PreprocessStats
}

// ReuseCarrier is implemented by detectors whose PathReuse coherence
// cache can be re-keyed onto caller-owned cross-frame state
// (core.FlexCore); serve keys Prepare reuse per user with it.
type ReuseCarrier interface {
	SetReuseState(*core.ReuseState)
}

// PathCapper is implemented by detectors that can bound their path sets
// per frame below the N_PE they were built with (core.FlexCore); serve
// degrades frames under queue pressure with it.
type PathCapper interface {
	SetPathCap(k int)
}

var (
	errEmptyFrame  = errors.New("phy: a frame needs at least one channel")
	errSelectRange = errors.New("phy: Select outside the prepared frame")
)

// NewFrameDetector wraps d for frame-at-a-time detection.
func NewFrameDetector(d detector.Detector) *FrameDetector {
	f := &FrameDetector{det: d, batch: detector.Batch(d)}
	f.frame, _ = d.(FramePreparer)
	f.rep, _ = d.(ActivePathReporter)
	f.pre, _ = d.(preprocessReporter)
	f.reuser, _ = d.(ReuseCarrier)
	f.capper, _ = d.(PathCapper)
	return f
}

// SetReuseState installs st as the wrapped detector's cross-frame
// coherence base for the next DetectFrame calls (nil removes it) and
// reports whether the detector supports external reuse keying. The
// type assertion is done once at construction, so per-frame installs
// stay off the allocation and dispatch hot path.
//
//flexcore:noalloc
func (f *FrameDetector) SetReuseState(st *core.ReuseState) bool {
	if f.reuser == nil {
		return false
	}
	f.reuser.SetReuseState(st)
	return true
}

// SetPathCap bounds the wrapped detector's path sets at k processing
// elements for the next DetectFrame calls (0 lifts the bound) and
// reports whether the detector supports a per-frame cap.
//
//flexcore:noalloc
func (f *FrameDetector) SetPathCap(k int) bool {
	if f.capper == nil {
		return false
	}
	f.capper.SetPathCap(k)
	return true
}

// Detector returns the wrapped detector.
func (f *FrameDetector) Detector() detector.Detector { return f.det }

// PrepareAll prepares a frame of per-subcarrier channels: in one call
// for a FramePreparer, otherwise by recording hs and sigma2 for Select
// to prepare one subcarrier at a time (hs must then stay unchanged
// until the frame's last Select). An empty frame is an error for every
// detector.
//
//flexcore:noalloc
func (f *FrameDetector) PrepareAll(hs []*cmatrix.Matrix, sigma2 float64) error {
	if f.frame != nil {
		return f.frame.PrepareAll(hs, sigma2)
	}
	if len(hs) == 0 {
		return errEmptyFrame
	}
	f.hs, f.sigma2 = hs, sigma2
	return nil
}

// Select activates subcarrier k of the prepared frame for the wrapped
// detector's Detect/DetectBatch/DetectSoft calls and samples its
// active processing-element count.
//
//flexcore:noalloc
func (f *FrameDetector) Select(k int) error {
	err := errSelectRange
	switch {
	case f.frame != nil:
		err = f.frame.Select(k)
	case 0 <= k && k < len(f.hs):
		err = f.det.Prepare(f.hs[k], f.sigma2)
	}
	if err == nil && f.rep != nil {
		f.activeSum += float64(f.rep.ActivePaths())
		f.activeN++
	}
	return err
}

// DetectFrame detects one frame: it prepares every subcarrier channel
// (PrepareAll), then for each subcarrier k selects it, detects the
// burst returned by burst(k) — one received vector per OFDM symbol —
// and hands the decisions to emit(k, got). The decisions slice is
// detector-owned and valid only until the next detection call: emit
// must consume (copy or encode) it before returning. The burst and
// emit callbacks let callers stream results without any intermediate
// per-frame decision buffer, keeping the steady-state loop
// allocation-free.
//
//flexcore:noalloc
func (f *FrameDetector) DetectFrame(hs []*cmatrix.Matrix, sigma2 float64, burst func(k int) [][]complex128, emit func(k int, decisions [][]int)) error {
	if err := f.PrepareAll(hs, sigma2); err != nil {
		return err
	}
	for k := range hs {
		if err := f.Select(k); err != nil {
			return err
		}
		emit(k, f.batch.DetectBatch(burst(k)))
	}
	return nil
}

// ActivePEs returns the cumulative active processing-element count and
// the number of selected subcarriers it was sampled over (nonzero only
// for detectors reporting ActivePaths, i.e. FlexCore/a-FlexCore) — the
// serving layer's AvgActivePEs metric and the simulator's.
func (f *FrameDetector) ActivePEs() (sum float64, n int64) { return f.activeSum, f.activeN }

// PreprocessStats returns the wrapped detector's cumulative
// pre-processing counters (zero for detectors without any).
func (f *FrameDetector) PreprocessStats() core.PreprocessStats {
	if f.pre == nil {
		return core.PreprocessStats{}
	}
	return f.pre.PreprocessStats()
}
