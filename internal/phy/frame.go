package phy

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"flexcore/internal/cmatrix"
	"flexcore/internal/core"
	"flexcore/internal/detector"
)

// FrameDetector runs any detector over whole uplink frames — one
// channel matrix per subcarrier, a burst of OFDM symbols per
// subcarrier. It is the repo's one frame loop: the serving layer
// (one per shard), bench/, the link simulator (one per packet worker)
// and the waveform receiver all prepare and detect frames through it.
// Every subcarrier is prepared on its own, then detected: a FlexCore
// (DESIGN.md §9) through PrepareAt, against that subcarrier's slot of
// the installed ReuseState, any other detector through Prepare.
// Decisions are bit-identical to looping Prepare+Detect per subcarrier
// either way.
//
// A FrameDetector is not safe for concurrent use (detectors are
// stateful across Prepare/Detect); run one per goroutine or shard.
// DetectFrame and DetectFrameSoft may themselves run a frame on more
// than one core (DESIGN.md §8): over a FlexCore its lanes — the caller
// on the wrapped detector, and helper goroutines, each with a helper
// detector of its own — claim the subcarriers one at a time.
type FrameDetector struct {
	det   detector.Detector
	batch detector.BatchDetector
	fc    flexCore // the detector's FlexCore surface; nil for any other detector

	st *core.ReuseState // the installed ReuseState, which the helper lanes prepare against too

	// lead is the wrapped detector when it is a FlexCore — a
	// subcarrier's path set and decisions depend on no other subcarrier,
	// so a frame may run on several lanes: own, lane 0, on the caller
	// over the wrapped detector itself, and lanes[i] on a helper
	// goroutine over a helper of lead made on first need. They claim the
	// subcarriers of claimed from next; wg joins the helpers.
	lead    *core.FlexCore
	own     *lane
	lanes   []*lane
	wg      sync.WaitGroup
	claimed []*cmatrix.Matrix
	sigma2  float64 // claimed's noise variance
	burst   func(k int) [][]complex128
	soft    bool         // the claimed frame is DetectFrameSoft's
	next    atomic.Int64 // claimed's next unclaimed subcarrier
}

// flexCore is the surface FrameDetector drives beyond detector.Detector,
// probed once in NewFrameDetector. A detector has all of it
// (*core.FlexCore, or a type embedding one) or none.
type flexCore interface {
	PrepareAt(hs []*cmatrix.Matrix, k int, sigma2 float64) error
	Options() core.Options
	PreprocessStats() core.PreprocessStats
	SetReuseState(*core.ReuseState)
	SetPathCap(k int)
	DetectSoft(y []complex128, sigma2 float64) (best []int, llrs [][]float64)
}

var (
	errEmptyFrame = errors.New("phy: a frame needs at least one channel")
	errNoSoft     = errors.New("phy: soft output needs a FlexCore detector")
)

// NewFrameDetector wraps d for frame-at-a-time detection.
func NewFrameDetector(d detector.Detector) *FrameDetector {
	f := &FrameDetector{det: d, batch: detector.Batch(d)}
	f.fc, _ = d.(flexCore)
	f.lead, _ = d.(*core.FlexCore)
	f.own = &lane{owner: f, fd: f}
	return f
}

// SetReuseState installs st as the wrapped detector's cross-frame
// coherence base for the next DetectFrame and DetectFrameSoft calls, and
// its helper lanes' (nil removes it), and reports whether the detector
// supports external reuse keying.
//
//flexcore:noalloc
func (f *FrameDetector) SetReuseState(st *core.ReuseState) bool {
	if f.fc == nil {
		return false
	}
	f.fc.SetReuseState(st)
	f.st = st
	return true
}

// SetPathCap bounds the wrapped detector's path sets, and its helper
// lanes', at k processing elements for the next DetectFrame calls (0
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

// Detector returns the wrapped detector, lane 0 of every frame.
func (f *FrameDetector) Detector() detector.Detector { return f.det }

// checkFrame is a frame's one check before any claim: over a FlexCore
// core's, so that a geometry fault anywhere returns PrepareAll's error
// with nothing emitted; any other detector's Prepare checks its own
// subcarrier, and only an empty frame is refused here.
func (f *FrameDetector) checkFrame(hs []*cmatrix.Matrix) error {
	if f.fc != nil {
		return core.CheckFrame(hs)
	}
	if len(hs) == 0 {
		return errEmptyFrame
	}
	return nil
}

// prepare prepares subcarrier k of the frame hs on its own for the
// wrapped detector's next Detect/DetectBatch/DetectSoft calls — a
// FlexCore through PrepareAt, any other detector through Prepare.
//
//flexcore:noalloc
func (f *FrameDetector) prepare(hs []*cmatrix.Matrix, k int, sigma2 float64) error {
	if f.fc == nil {
		return f.det.Prepare(hs[k], sigma2)
	}
	return f.fc.PrepareAt(hs, k, sigma2)
}

// DetectFrame detects one frame: for each subcarrier k it prepares that
// subcarrier's channel, detects the burst returned by burst(k) — one
// received vector per OFDM symbol — and hands the decisions to emit(k,
// got). The decisions slice is valid only until the next detection
// call: emit must consume (copy or encode) it before returning. The
// burst and emit callbacks let callers stream results without any
// intermediate per-frame decision buffer of their own, keeping the
// steady-state loop allocation-free.
//
// Over a FlexCore, PathReuse or not, a frame of K ≥ 2 subcarriers runs
// on L = min(K, GOMAXPROCS − busy) lanes, and at least one, busy being
// the cores the process's other frames hold — one per frame in flight
// plus one per helper lane it runs (DESIGN.md §8). Every lane, the
// caller's on the wrapped detector included, claims the next subcarrier
// until none is left, and prepares it against that subcarrier's slot of
// the installed ReuseState. Decisions, path sets, emit order, errors,
// the ReuseState after the frame and every counter are those of the
// one-lane run. emit runs only on the caller's goroutine, in increasing
// k, once the lanes are joined. burst(k) may run on a helper goroutine,
// concurrently with other burst calls: it must only read data that stays
// unchanged for the call, as returning a slice of the frame does. A
// helper outlives its last frame by at most one linger, and only while
// the process runs no more goroutines than it has Ps; it touches no
// frame state after the join.
//
//flexcore:noalloc
func (f *FrameDetector) DetectFrame(hs []*cmatrix.Matrix, sigma2 float64, burst func(k int) [][]complex128, emit func(k int, decisions [][]int)) error {
	return f.detectFrame(hs, sigma2, burst, emit, nil)
}

// DetectFrameSoft is DetectFrame with soft output: received vector s of
// subcarrier k goes through FlexCore's DetectSoft, and emit(k, s, got,
// llrs) must consume its decisions and per-bit LLRs before returning.
// Any other detector is an error, before anything is prepared. A soft
// frame runs on lanes as a hard one does: each lane keeps its vectors'
// decisions and LLRs until the join, and emit sees them in increasing k,
// then s, with the one-lane run's bits.
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
// lane it runs. A frame takes helper lanes only on the cores the others
// leave idle.
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

// detectFrame is the one frame loop, whatever the detector and however
// many lanes the frame gets. It checks the frame, reserves n lanes,
// grows the installed ReuseState to the frame, hands the frame to helper
// lanes 1…n−1, claims subcarriers on lane 0 — the wrapped detector —
// until none is left, takes back every hand-off whose goroutine has not
// started, joins the helpers, emits every lane's results in increasing k
// up to the lowest failed claim and folds the helpers' counters into the
// wrapped detector — sums, in any order. The error is that claim's,
// after exactly the subcarriers below it were emitted. Exactly one of
// hard and soft is set.
//
//flexcore:noalloc
func (f *FrameDetector) detectFrame(hs []*cmatrix.Matrix, sigma2 float64, burst func(k int) [][]complex128, hard func(k int, decisions [][]int), soft func(k, s int, got []int, llrs [][]float64)) error {
	if err := f.checkFrame(hs); err != nil {
		return err
	}
	want := 1 // only a FlexCore has helpers
	if f.lead != nil {
		want = len(hs)
	}
	n := reserveCores(want)
	defer coresInUse.Add(-int64(n))
	if f.st != nil && f.fc.Options().PathReuse {
		f.st.Grow(len(hs)) // before any hand-off: the lanes then only index it
	}
	f.claimed, f.sigma2, f.burst, f.soft = hs, sigma2, burst, soft != nil
	f.next.Store(0)
	for i := range n - 1 {
		f.handOff(i)
	}
	f.own.reset()
	f.own.claim()
	for _, l := range f.lanes[:n-1] {
		if l.state.CompareAndSwap(laneQueued, laneStale) {
			f.wg.Done() // taken back: its goroutine has not started, and nothing is left to claim
		}
	}
	for _, l := range f.lanes[:n-1] {
		for l.state.Load() == laneWork && alone() {
			runtime.Gosched()
		}
	}
	f.wg.Wait()

	end, err := len(hs), error(nil)
	for i := range n {
		l := f.lane(i)
		if l.err != nil && l.errK < end {
			end, err = l.errK, l.err
		}
		l.views()
	}
	for k := range end {
		i := 0 // the lane that claimed k emits it
		for !f.lane(i).emit(k, hard, soft) {
			i++
		}
	}
	for _, l := range f.lanes[:n-1] {
		f.lead.Fold(l.fd.lead)
		l.fd.fc.SetReuseState(nil)
	}
	f.claimed, f.burst = nil, nil
	return err
}

// lane returns lane i of a frame: 0 the caller's, i ≥ 1 helper i−1.
//
//flexcore:noalloc
func (f *FrameDetector) lane(i int) *lane {
	if i == 0 {
		return f.own
	}
	return f.lanes[i-1]
}

// handOff hands the frame to helper lane i, making the lane on first
// need, with the owner's ReuseState installed on its detector: a lane
// whose goroutine still lingers takes it with one compare-and-swap, so
// does one a taken-back hand-off left queued for a goroutine that has
// not started yet, and any other gets a goroutine started for it.
func (f *FrameDetector) handOff(i int) {
	if i == len(f.lanes) {
		l := &lane{owner: f, fd: NewFrameDetector(f.lead.Helper())}
		l.timer = time.NewTimer(linger)
		l.timer.Stop()
		f.lanes = append(f.lanes, l)
	}
	l := f.lanes[i]
	l.reset()
	l.fd.fc.SetReuseState(f.st)
	f.wg.Add(1)
	if l.state.CompareAndSwap(laneIdle, laneWork) || l.state.CompareAndSwap(laneStale, laneQueued) {
		return
	}
	l.state.Store(laneQueued)
	go runLane()
	laneQ <- l
}

// laneQ carries each handed-off lane to the goroutine started for it. A
// go statement whose function takes no argument captures nothing, so
// starting the goroutine does not allocate; any runLane goroutine may
// take any lane. The buffer lets a frame queue its lanes without waiting
// for their goroutines to be scheduled — 64 holds one frame's helpers on
// up to 65 cores — and a full queue only makes handOff wait for a
// runLane to take one.
var laneQ = make(chan *lane, 64)

// A helper lane's state. A hand-off that starts a goroutine makes it
// laneQueued until that goroutine starts (laneWork), or until the
// caller, out of claims first, takes the hand-off back (laneStale: the
// goroutine, once it starts, finds nothing to do and exits, laneGone,
// unless the next hand-off has made the lane laneQueued again). A
// goroutine that has run out of claims lingers in laneIdle, where a
// hand-off makes the lane laneWork directly, and leaves it laneGone.
const (
	laneGone int32 = iota
	laneQueued
	laneStale
	laneWork
	laneIdle
)

// linger is how long a helper goroutine waits for its lane's next
// hand-off after a frame. Starting a goroutine onto an idle core costs
// about a sixth of a frame-prep frame on the 2-vCPU reference host, and
// back-to-back frames hand off well within this (DESIGN.md §8). It is
// only a wait: no result depends on it.
const linger = 300 * time.Microsecond

// alone reports whether the process runs no more goroutines than it has
// Ps. Only then may a lane keep a core warm with a yielding poll — a
// helper lingering for the next hand-off, a caller waiting at the join:
// a P that keeps finding its poller in the global run queue never polls
// the network, steals work or runs other Ps' timers, but with no more
// goroutines than Ps none waits for a P, and while one is parked a P is
// idle to do that work.
//
//flexcore:noalloc
func alone() bool {
	return runtime.NumGoroutine() <= runtime.GOMAXPROCS(0)
}

// runLane serves a handed-off lane: unless the hand-off was taken back,
// it claims the frame's subcarriers, marks its part done and lingers for
// the lane's next hand-off, until a linger passes without one.
func runLane() {
	l := <-laneQ
	for !l.state.CompareAndSwap(laneQueued, laneWork) {
		if l.state.CompareAndSwap(laneStale, laneGone) {
			return
		}
	}
	for {
		l.claim()
		l.state.Store(laneIdle)
		l.owner.wg.Done()
		if !l.await() {
			return
		}
	}
}

// await polls the lane for its next hand-off for up to one linger,
// yielding the P on every poll so that any goroutine queued there runs
// first, and reports whether one came; it gives up as soon as the
// process is not alone, and arms no timer when it starts out so. A
// hand-off that races the give-up either wins the compare-and-swap, and
// is served, or finds the lane gone and starts a goroutine of its own.
func (l *lane) await() bool {
	if alone() {
		l.timer.Reset(linger)
		for alone() && l.state.Load() != laneWork {
			runtime.Gosched()
			select {
			case <-l.timer.C:
				return !l.state.CompareAndSwap(laneIdle, laneGone)
			default:
			}
		}
		l.timer.Stop()
		select { // a timer that expired as it was stopped
		case <-l.timer.C:
		default:
		}
	}
	return !l.state.CompareAndSwap(laneIdle, laneGone)
}

// lane is one lane of a frame: its FrameDetector — for lane 0, the
// caller's, the owner itself over the wrapped detector; for a helper
// lane, one over a helper of the wrapped FlexCore (SetPathCap caps
// both) — the subcarriers it claimed, in increasing k, and their
// results — decisions, and a soft frame's LLRs — kept in lane-owned
// arenas (grown to their high-water mark) until the caller emits them
// after the join.
type lane struct {
	owner *FrameDetector
	fd    *FrameDetector // the lane's detector: owner itself for lane 0
	state atomic.Int32   // a helper lane's laneGone, laneQueued, laneStale, laneWork or laneIdle
	timer *time.Timer    // a helper's linger

	err  error // the failed claim's, which ended the lane's claims
	errK int

	ks   []int       // the claimed subcarriers
	buf  []int       // their decisions, vector after vector
	lbuf []float64   // a soft frame's LLRs, vector after vector, stream-major
	at   []int       // at[i]: vectors kept before ks[i]; one more entry than ks, the last counting every vector kept
	hdr  [][]int     // per-vector views into buf, built by views
	rows [][]float64 // per-vector, per-stream views into lbuf, built by views
	cur  int         // ks[cur] is the next subcarrier emit hands over
}

// reset empties the lane for the next frame.
func (l *lane) reset() {
	l.ks, l.buf, l.lbuf, l.at = l.ks[:0], l.buf[:0], l.lbuf[:0], append(l.at[:0], 0)
	l.err = nil
}

// claim takes the owner's next unclaimed subcarrier, prepares it on the
// lane's detector and detects its burst, until none is left or a claim
// fails; a failure records its k and ends every lane's claims.
//
//flexcore:noalloc
func (l *lane) claim() {
	f := l.owner
	K := len(f.claimed)
	for {
		k := int(f.next.Add(1) - 1)
		if k >= K {
			return
		}
		if err := l.fd.prepare(f.claimed, k, f.sigma2); err != nil {
			l.err, l.errK = err, k
			f.next.Store(int64(K))
			return
		}
		l.keepClaim(k)
	}
}

// keepClaim detects the prepared claim k's burst and keeps its results
// for emit — decisions, and a soft frame's LLRs, vector after vector —
// growing the lane's arenas past their high-water mark only.
func (l *lane) keepClaim(k int) {
	f := l.owner
	vectors := l.at[len(l.at)-1]
	if f.soft {
		for _, y := range f.burst(k) {
			got, llrs := l.fd.fc.DetectSoft(y, f.sigma2)
			l.buf = append(l.buf, got...)
			for _, r := range llrs {
				l.lbuf = append(l.lbuf, r...)
			}
			vectors++
		}
	} else {
		for _, d := range l.fd.batch.DetectBatch(f.burst(k)) {
			l.buf = append(l.buf, d...)
			vectors++
		}
	}
	l.ks, l.at = append(l.ks, k), append(l.at, vectors)
}

// views builds the per-vector views emit hands over and rewinds it.
func (l *lane) views() {
	vectors := l.at[len(l.at)-1]
	if cap(l.hdr) < vectors {
		l.hdr = make([][]int, vectors)
	}
	l.hdr = l.hdr[:vectors]
	l.cur = 0
	if vectors == 0 {
		return
	}
	n := len(l.buf) / vectors
	for v := range l.hdr {
		l.hdr[v] = l.buf[v*n : (v+1)*n : (v+1)*n]
	}
	if len(l.lbuf) == 0 {
		return
	}
	if cap(l.rows) < len(l.buf) {
		l.rows = make([][]float64, len(l.buf))
	}
	l.rows = l.rows[:len(l.buf)]
	nb := len(l.lbuf) / len(l.buf)
	for r := range l.rows {
		l.rows[r] = l.lbuf[r*nb : (r+1)*nb : (r+1)*nb]
	}
}

// emit hands subcarrier k's kept results to hard — or vector by vector
// to soft — and reports whether the lane claimed k.
//
//flexcore:noalloc
func (l *lane) emit(k int, hard func(k int, decisions [][]int), soft func(k, s int, got []int, llrs [][]float64)) bool {
	if l.cur == len(l.ks) || l.ks[l.cur] != k {
		return false
	}
	lo, hi := l.at[l.cur], l.at[l.cur+1]
	if hard != nil {
		hard(k, l.hdr[lo:hi])
	} else {
		for v := lo; v < hi; v++ {
			n := len(l.hdr[v])
			soft(k, v-lo, l.hdr[v], l.rows[v*n:(v+1)*n])
		}
	}
	l.cur++
	return true
}

// ActivePEs returns the wrapped detector's cumulative active
// processing-element count, PreprocessStats.ActivePaths, and the number
// of subcarriers it was summed over, OpCount.Prepares — (0, 0) for a
// detector that is not a FlexCore. Their ratio is the simulator's mean
// active-PE count.
func (f *FrameDetector) ActivePEs() (sum float64, n int64) {
	if f.fc == nil {
		return 0, 0
	}
	return float64(f.fc.PreprocessStats().ActivePaths), f.det.OpCount().Prepares
}

// PreprocessStats returns the wrapped detector's cumulative
// pre-processing counters (zero for detectors without any).
func (f *FrameDetector) PreprocessStats() core.PreprocessStats {
	if f.fc == nil {
		return core.PreprocessStats{}
	}
	return f.fc.PreprocessStats()
}
