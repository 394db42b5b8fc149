package phy

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"

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
// DetectFrame may itself run a frame on more than one core (DESIGN.md
// §8): over a FlexCore without PathReuse it stripes the subcarriers over
// helper detectors it keeps, each on a goroutine that ends before the
// call returns.
type FrameDetector struct {
	det   detector.Detector
	batch detector.BatchDetector
	fc    flexCore // the detector's FlexCore surface; nil for any other detector

	hs     []*cmatrix.Matrix // the frame Select prepares per subcarrier (fc == nil)
	sigma2 float64

	activeSum float64
	activeN   int64

	// lead is the wrapped detector when it is a FlexCore without
	// PathReuse — its subcarriers depend on no other subcarrier, so a hard
	// frame may stripe: stripe 0 runs on lead, stripe i on lanes[i-1],
	// made on first need. wg joins the helper lanes of a frame.
	lead  *core.FlexCore
	lanes []*lane
	wg    sync.WaitGroup
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
	if c, ok := d.(*core.FlexCore); ok && !c.Options().PathReuse {
		f.lead = c
	}
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

// SetPathCap bounds the wrapped detector's path sets, and its stripe
// helpers', at k processing elements for the next DetectFrame calls (0
// lifts the bound) and reports whether the detector supports a
// per-frame cap.
//
//flexcore:noalloc
func (f *FrameDetector) SetPathCap(k int) bool {
	if f.fc == nil {
		return false
	}
	f.fc.SetPathCap(k)
	for _, l := range f.lanes {
		l.fd.SetPathCap(k)
	}
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
// Over a FlexCore without PathReuse, a frame of K ≥ 2 subcarriers runs
// as L = min(K, GOMAXPROCS − busy) contiguous stripes, and at least one,
// busy being the cores the process's other frames hold — one per frame
// in flight plus one per helper stripe it runs (DESIGN.md §8).
// Decisions, emit order and every counter are those of the one-stripe
// run, and emit runs only on the caller's goroutine, in increasing k.
// burst(k), though, may run on a helper goroutine, concurrently with
// emit and with other burst calls: it must only read data that stays
// unchanged for the call, as returning a slice of the frame does.
//
// The wrapped detector's prepared frame is the one-stripe run's only
// when the frame ran as one stripe: a striped frame leaves it holding
// stripe 0 alone, so after DetectFrame call PrepareAll before Select,
// and Select before Detect, Paths or ActivePaths.
//
//flexcore:noalloc
func (f *FrameDetector) DetectFrame(hs []*cmatrix.Matrix, sigma2 float64, burst func(k int) [][]complex128, emit func(k int, decisions [][]int)) error {
	return f.detectFrame(hs, sigma2, burst, emit, nil)
}

// DetectFrameSoft is DetectFrame with soft output: received vector s of
// subcarrier k goes through FlexCore's DetectSoft, and emit(k, s, got,
// llrs) must consume its decisions and per-bit LLRs before returning.
// Any other detector is an error, before anything is prepared. A soft
// frame runs as one stripe, on the caller.
//
//flexcore:noalloc
func (f *FrameDetector) DetectFrameSoft(hs []*cmatrix.Matrix, sigma2 float64, burst func(k int) [][]complex128, emit func(k, s int, got []int, llrs [][]float64)) error {
	if f.fc == nil {
		return errNoSoft
	}
	return f.detectFrame(hs, sigma2, burst, nil, emit)
}

// coresInUse counts the cores the process's DetectFrame and
// DetectFrameSoft calls hold: one per call in flight, plus one per helper
// stripe it runs. A frame stripes only over the cores the others leave
// idle.
var coresInUse atomic.Int64

// reserveCores takes up to want of the cores GOMAXPROCS leaves idle, and
// at least one — the caller's own — and returns how many it took.
//
//flexcore:noalloc
func reserveCores(want int) int {
	procs := int64(runtime.GOMAXPROCS(0))
	for {
		used := coresInUse.Load()
		n := max(1, min(int64(want), procs-used))
		if coresInUse.CompareAndSwap(used, used+n) {
			return int(n)
		}
	}
}

// detectFrame is the one frame loop. Helper lanes take stripes 1…L−1,
// the caller runs stripe 0 on the wrapped detector, emitting as it
// goes, then joins the lanes, emits their decisions in k order and
// folds their counters back. A one-stripe frame (L = 1) hands off
// nothing and joins nothing. The error is the lowest subcarrier's, after
// exactly the subcarriers below it were emitted.
//
//flexcore:noalloc
func (f *FrameDetector) detectFrame(hs []*cmatrix.Matrix, sigma2 float64, burst func(k int) [][]complex128, hard func(k int, decisions [][]int), soft func(k, s int, got []int, llrs [][]float64)) error {
	want := 1
	if hard != nil {
		want = f.maxStripes(hs)
	}
	stripes := reserveCores(want)
	defer coresInUse.Add(-int64(stripes))
	K := len(hs)
	for i := 1; i < stripes; i++ {
		f.handOff(i-1, hs, K*i/stripes, K*(i+1)/stripes, sigma2, burst)
	}
	err := f.stripe(hs[:K/stripes], 0, sigma2, burst, hard, soft)
	f.wg.Wait()
	for _, l := range f.lanes[:stripes-1] {
		if err == nil {
			err = l.emit(hard)
		}
		f.fold(l)
	}
	return err
}

// maxStripes returns how many stripes a hard frame may run in: one
// unless the wrapped detector is a FlexCore without PathReuse and the
// frame has two or more subcarriers of one valid geometry (any other
// frame gets the wrapped detector's own error, nothing emitted), else
// one per subcarrier.
//
//flexcore:noalloc
func (f *FrameDetector) maxStripes(hs []*cmatrix.Matrix) int {
	if f.lead == nil || len(hs) < 2 || hs[0].Rows < hs[0].Cols {
		return 1
	}
	for _, h := range hs {
		if h.Rows != hs[0].Rows || h.Cols != hs[0].Cols {
			return 1
		}
	}
	return len(hs)
}

// stripe prepares hs — subcarriers lo… of a frame — and detects them in
// order: per subcarrier Select and the burst's detection, one
// DetectBatch when hard is set, else one DetectSoft per vector.
//
//flexcore:noalloc
func (f *FrameDetector) stripe(hs []*cmatrix.Matrix, lo int, sigma2 float64, burst func(k int) [][]complex128, hard func(k int, decisions [][]int), soft func(k, s int, got []int, llrs [][]float64)) error {
	if err := f.PrepareAll(hs, sigma2); err != nil {
		return err
	}
	for i := range hs {
		if err := f.Select(i); err != nil {
			return err
		}
		k := lo + i
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

// handOff starts helper lane i on subcarriers [lo, hi) of the frame,
// making the lane on first need.
func (f *FrameDetector) handOff(i int, hs []*cmatrix.Matrix, lo, hi int, sigma2 float64, burst func(k int) [][]complex128) {
	if i == len(f.lanes) {
		f.lanes = append(f.lanes, newLane(f))
	}
	l := f.lanes[i]
	l.hs, l.lo, l.sigma2, l.burst = hs[lo:hi], lo, sigma2, burst
	l.at, l.buf = append(l.at[:0], 0), l.buf[:0]
	f.wg.Add(1)
	go runLane()
	laneQ <- l
}

// fold returns a joined lane's counters to the wrapped detector and
// drops its references to the frame.
//
//flexcore:noalloc
func (f *FrameDetector) fold(l *lane) {
	f.lead.Fold(l.fd.lead)
	f.activeSum += l.fd.activeSum
	f.activeN += l.fd.activeN
	l.fd.activeSum, l.fd.activeN = 0, 0
	l.hs, l.burst, l.err = nil, nil, nil
}

// laneQ carries each handed-off lane to the goroutine started for it. A
// go statement whose function takes no argument captures nothing, so
// starting the goroutine does not allocate; any runLane goroutine may
// take any lane. The buffer lets a frame queue its lanes without waiting
// for their goroutines to be scheduled — 64 holds one frame's helpers on
// up to 65 cores — and a full queue only makes handOff wait for a
// runLane to take one.
var laneQ = make(chan *lane, 64)

// runLane runs one handed-off lane and marks it joined.
func runLane() {
	l := <-laneQ
	defer l.owner.wg.Done()
	l.err = l.fd.stripe(l.hs, l.lo, l.sigma2, l.burst, l.keep, nil)
}

// lane is a helper stripe of a frame: a FrameDetector over a helper of
// the wrapped FlexCore (SetPathCap caps both), the stripe it runs, and
// its decisions, kept in lane-owned arenas (grown to their high-water
// mark) until the caller emits them after the join.
type lane struct {
	owner *FrameDetector
	fd    *FrameDetector                 // over the helper detector, fd.lead
	keep  func(k int, decisions [][]int) // l.store, bound once: a method value made per frame allocates

	hs     []*cmatrix.Matrix
	lo     int
	sigma2 float64
	burst  func(k int) [][]complex128
	err    error

	buf []int   // the stripe's decisions, vector after vector
	at  []int   // at[i]: vectors of the stripe before subcarrier lo+i; one more entry per kept subcarrier
	hdr [][]int // per-vector views into buf, built by emit
}

func newLane(owner *FrameDetector) *lane {
	l := &lane{owner: owner, fd: NewFrameDetector(owner.lead.Helper())}
	l.keep = l.store
	return l
}

// store keeps subcarrier k's decisions for emit.
func (l *lane) store(k int, decisions [][]int) {
	for _, d := range decisions {
		l.buf = append(l.buf, d...)
	}
	l.at = append(l.at, l.at[len(l.at)-1]+len(decisions))
}

// emit hands the stripe's kept decisions to hard in k order and returns
// the stripe's error, which stopped it after the last one kept.
func (l *lane) emit(hard func(k int, decisions [][]int)) error {
	vectors := l.at[len(l.at)-1]
	if cap(l.hdr) < vectors {
		l.hdr = make([][]int, vectors)
	}
	l.hdr = l.hdr[:vectors]
	if vectors > 0 {
		n := len(l.buf) / vectors
		for v := range l.hdr {
			l.hdr[v] = l.buf[v*n : (v+1)*n : (v+1)*n]
		}
	}
	for i := 0; i+1 < len(l.at); i++ {
		hard(l.lo+i, l.hdr[l.at[i]:l.at[i+1]])
	}
	return l.err
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
