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
// FlexCore (DESIGN.md §9) runs its channel-rate PrepareAll/Select; any
// other detector is prepared one subcarrier at a time by Select.
// Decisions are bit-identical to looping Prepare+Detect per subcarrier
// either way: FlexCore's Prepare is the one-subcarrier PrepareAll.
//
// A FrameDetector is not safe for concurrent use (detectors are
// stateful across Prepare/Detect); run one per goroutine or shard.
type FrameDetector struct {
	det   detector.Detector
	batch detector.BatchDetector
	fc    flexCore // the detector's FlexCore surface; nil for any other detector

	hs     []*cmatrix.Matrix // the frame Select prepares per subcarrier (fc == nil)
	sigma2 float64

	activeSum float64
	activeN   int64
}

// flexCore is the surface FrameDetector drives beyond detector.Detector,
// probed once in NewFrameDetector. A detector has all of it
// (*core.FlexCore, or a type embedding one) or none.
type flexCore interface {
	PrepareAll(hs []*cmatrix.Matrix, sigma2 float64) error
	Select(k int) error
	ActivePaths() int
	PreprocessStats() core.PreprocessStats
	SetReuseState(*core.ReuseState)
	SetPathCap(k int)
	DetectSoft(y []complex128, sigma2 float64) (best []int, llrs [][]float64)
}

var (
	errEmptyFrame  = errors.New("phy: a frame needs at least one channel")
	errSelectRange = errors.New("phy: Select outside the prepared frame")
	errNoSoft      = errors.New("phy: soft output needs a FlexCore detector")
)

// NewFrameDetector wraps d for frame-at-a-time detection.
func NewFrameDetector(d detector.Detector) *FrameDetector {
	f := &FrameDetector{det: d, batch: detector.Batch(d)}
	f.fc, _ = d.(flexCore)
	return f
}

// SetReuseState installs st as the wrapped detector's cross-frame
// coherence base for the next DetectFrame calls (nil removes it) and
// reports whether the detector supports external reuse keying.
//
//flexcore:noalloc
func (f *FrameDetector) SetReuseState(st *core.ReuseState) bool {
	if f.fc == nil {
		return false
	}
	f.fc.SetReuseState(st)
	return true
}

// SetPathCap bounds the wrapped detector's path sets at k processing
// elements for the next DetectFrame calls (0 lifts the bound) and
// reports whether the detector supports a per-frame cap.
//
//flexcore:noalloc
func (f *FrameDetector) SetPathCap(k int) bool {
	if f.fc == nil {
		return false
	}
	f.fc.SetPathCap(k)
	return true
}

// Detector returns the wrapped detector.
func (f *FrameDetector) Detector() detector.Detector { return f.det }

// PrepareAll prepares a frame of per-subcarrier channels: in one call
// for FlexCore, otherwise by recording hs and sigma2 for Select to
// prepare one subcarrier at a time (hs must then stay unchanged until
// the frame's last Select). An empty frame is an error for every
// detector.
//
//flexcore:noalloc
func (f *FrameDetector) PrepareAll(hs []*cmatrix.Matrix, sigma2 float64) error {
	if f.fc != nil {
		return f.fc.PrepareAll(hs, sigma2)
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
	case f.fc != nil:
		err = f.fc.Select(k)
	case 0 <= k && k < len(f.hs):
		err = f.det.Prepare(f.hs[k], f.sigma2)
	}
	if err == nil && f.fc != nil {
		f.activeSum += float64(f.fc.ActivePaths())
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
	return f.detectFrame(hs, sigma2, burst, emit, nil)
}

// DetectFrameSoft is DetectFrame with soft output: received vector s of
// subcarrier k goes through FlexCore's DetectSoft, and emit(k, s, got,
// llrs) must consume its decisions and per-bit LLRs before returning.
// Any other detector is an error, before anything is prepared.
//
//flexcore:noalloc
func (f *FrameDetector) DetectFrameSoft(hs []*cmatrix.Matrix, sigma2 float64, burst func(k int) [][]complex128, emit func(k, s int, got []int, llrs [][]float64)) error {
	if f.fc == nil {
		return errNoSoft
	}
	return f.detectFrame(hs, sigma2, burst, nil, emit)
}

// detectFrame is the one frame loop: PrepareAll, then per subcarrier
// Select and the burst's detection — one DetectBatch when hard is set,
// else one DetectSoft per vector.
//
//flexcore:noalloc
func (f *FrameDetector) detectFrame(hs []*cmatrix.Matrix, sigma2 float64, burst func(k int) [][]complex128, hard func(k int, decisions [][]int), soft func(k, s int, got []int, llrs [][]float64)) error {
	if err := f.PrepareAll(hs, sigma2); err != nil {
		return err
	}
	for k := range hs {
		if err := f.Select(k); err != nil {
			return err
		}
		if hard != nil {
			hard(k, f.batch.DetectBatch(burst(k)))
			continue
		}
		for s, y := range burst(k) {
			got, llrs := f.fc.DetectSoft(y, sigma2)
			soft(k, s, got, llrs)
		}
	}
	return nil
}

// ActivePEs returns the cumulative active processing-element count and
// the number of selected subcarriers it was sampled over (nonzero only
// for FlexCore/a-FlexCore) — the serving layer's AvgActivePEs metric
// and the simulator's.
func (f *FrameDetector) ActivePEs() (sum float64, n int64) { return f.activeSum, f.activeN }

// PreprocessStats returns the wrapped detector's cumulative
// pre-processing counters (zero for detectors without any).
func (f *FrameDetector) PreprocessStats() core.PreprocessStats {
	if f.fc == nil {
		return core.PreprocessStats{}
	}
	return f.fc.PreprocessStats()
}
