package phy

import (
	"flexcore/internal/cmatrix"
	"flexcore/internal/core"
	"flexcore/internal/detector"
)

// FrameDetector runs any detector over whole uplink frames — one
// channel matrix per subcarrier, a burst of OFDM symbols per
// subcarrier — through the channel-rate fast path when the detector
// implements FramePreparer (FlexCore's PrepareAll/Select, DESIGN.md
// §9) and through the scalar Prepare loop otherwise. It is the
// serving layer's frame-detection loop (internal/serve builds one per
// shard worker, and bench/ replays it); the link simulator's genie-CSI
// path runs its own PrepareAll/Select loop (simWorker.simPacket). Its
// decisions are bit-identical to looping Prepare+Detect per subcarrier:
// FlexCore's Prepare is the one-subcarrier PrepareAll.
//
// A FrameDetector is not safe for concurrent use (detectors are
// stateful across Prepare/Detect); run one per goroutine or shard.
type FrameDetector struct {
	det    detector.Detector
	batch  detector.BatchDetector
	frame  FramePreparer
	rep    ActivePathReporter
	reuser ReuseCarrier
	capper PathCapper

	activeSum float64
	activeN   int64
}

// ReuseCarrier is implemented by detectors whose PathReuse coherence
// cache can be re-keyed onto caller-owned cross-frame state
// (core.FlexCore). The serving layer uses it to key Prepare reuse per
// user.
type ReuseCarrier interface {
	SetReuseState(*core.ReuseState)
}

// PathCapper is implemented by detectors that can bound their path
// sets per frame below the N_PE they were built with (core.FlexCore).
// The serving layer uses it to degrade frames under queue pressure.
type PathCapper interface {
	SetPathCap(k int)
}

// NewFrameDetector wraps d for frame-at-a-time detection.
func NewFrameDetector(d detector.Detector) *FrameDetector {
	f := &FrameDetector{det: d, batch: detector.Batch(d)}
	f.frame, _ = d.(FramePreparer)
	f.rep, _ = d.(ActivePathReporter)
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

// DetectFrame detects one frame: it prepares every subcarrier channel
// (in one PrepareAll when the detector supports it), then for each
// subcarrier k detects the burst returned by burst(k) — one received
// vector per OFDM symbol — and hands the decisions to emit(k, got).
// The decisions slice is detector-owned and valid only until the next
// detection call: emit must consume (copy or encode) it before
// returning. The burst and emit callbacks let callers stream results
// without any intermediate per-frame decision buffer, keeping the
// steady-state loop allocation-free.
//
//flexcore:noalloc
func (f *FrameDetector) DetectFrame(hs []*cmatrix.Matrix, sigma2 float64, burst func(k int) [][]complex128, emit func(k int, decisions [][]int)) error {
	if f.frame != nil {
		if err := f.frame.PrepareAll(hs, sigma2); err != nil {
			return err
		}
	}
	for k := range hs {
		if f.frame != nil {
			if err := f.frame.Select(k); err != nil {
				return err
			}
		} else if err := f.det.Prepare(hs[k], sigma2); err != nil {
			return err
		}
		if f.rep != nil {
			f.activeSum += float64(f.rep.ActivePaths())
			f.activeN++
		}
		emit(k, f.batch.DetectBatch(burst(k)))
	}
	return nil
}

// ActivePEs returns the cumulative active processing-element count and
// the number of prepared subcarriers it was sampled over (nonzero only
// for detectors reporting ActivePaths, i.e. FlexCore/a-FlexCore) — the
// serving layer's AvgActivePEs metric.
func (f *FrameDetector) ActivePEs() (sum float64, n int64) { return f.activeSum, f.activeN }
