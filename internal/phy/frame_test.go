package phy

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"testing"

	"flexcore/internal/channel"
	"flexcore/internal/cmatrix"
	"flexcore/internal/constellation"
	"flexcore/internal/core"
	"flexcore/internal/detector"
)

// frameCase builds a deterministic frame: K Rayleigh channels and a
// burst of S received vectors per subcarrier.
func frameCase(t *testing.T, seed uint64, nr, nt, k, s int) ([]*cmatrix.Matrix, [][][]complex128) {
	t.Helper()
	rng := channel.NewStreamRNG(seed, 0)
	hs := make([]*cmatrix.Matrix, k)
	ys := make([][][]complex128, k)
	x := make([]complex128, nt)
	for i := range hs {
		hs[i] = channel.Rayleigh(rng, nr, nt)
		ys[i] = make([][]complex128, s)
		for j := range ys[i] {
			for l := range x {
				x[l] = channel.CN(rng, 1)
			}
			ys[i][j] = channel.AddAWGN(rng, hs[i].MulVec(x), 0.1)
		}
	}
	return hs, ys
}

// runFrame collects DetectFrame's streamed decisions into a copy the
// caller owns.
func runFrame(t *testing.T, fd *FrameDetector, hs []*cmatrix.Matrix, ys [][][]complex128, sigma2 float64) [][][]int {
	t.Helper()
	out := make([][][]int, len(hs))
	err := fd.DetectFrame(hs, sigma2, func(k int) [][]complex128 { return ys[k] }, func(k int, decisions [][]int) {
		out[k] = make([][]int, len(decisions))
		for s, d := range decisions {
			out[k][s] = append([]int(nil), d...)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// checkAgainstScalarLoop compares a FrameDetector run against the
// reference loop — a fresh detector, scalar Prepare+Detect per
// subcarrier — which must be bit-identical (DESIGN.md §9).
func checkAgainstScalarLoop(t *testing.T, fd *FrameDetector, ref detector.Detector, seed uint64) {
	t.Helper()
	const nr, nt, k, s, sigma2 = 4, 3, 5, 2, 0.1
	hs, ys := frameCase(t, seed, nr, nt, k, s)
	got := runFrame(t, fd, hs, ys, sigma2)
	for ki := range hs {
		if err := ref.Prepare(hs[ki], sigma2); err != nil {
			t.Fatal(err)
		}
		for si := range ys[ki] {
			want := ref.Detect(ys[ki][si])
			for i, w := range want {
				if got[ki][si][i] != w {
					t.Fatalf("subcarrier %d symbol %d stream %d: frame path %d, scalar loop %d",
						ki, si, i, got[ki][si][i], w)
				}
			}
		}
	}
}

// TestFrameDetectorMatchesScalarLoopFlexCore covers FlexCore's
// per-subcarrier prepare: DetectFrame prepares each subcarrier through
// PrepareAt.
func TestFrameDetectorMatchesScalarLoopFlexCore(t *testing.T) {
	cons, err := constellation.New(16)
	if err != nil {
		t.Fatal(err)
	}
	det := core.New(cons, core.Options{NPE: 16})
	ref := core.New(cons, core.Options{NPE: 16})
	fd := NewFrameDetector(det)
	checkAgainstScalarLoop(t, fd, ref, 0xabc1)
	// FlexCore reports active PEs: its counters sum one path set per
	// prepared subcarrier across the run.
	if sum, n := fd.ActivePEs(); n != 5 || sum != float64(16*5) {
		t.Fatalf("ActivePEs = (%g, %d), want (80, 5)", sum, n)
	}
}

// TestFrameDetectorMatchesScalarLoopMMSE covers any other detector: a
// linear detector has no FlexCore surface, so DetectFrame runs its
// Prepare one subcarrier at a time.
func TestFrameDetectorMatchesScalarLoopMMSE(t *testing.T) {
	cons, err := constellation.New(16)
	if err != nil {
		t.Fatal(err)
	}
	det := detector.NewMMSE(cons)
	ref := detector.NewMMSE(cons)
	fd := NewFrameDetector(det)
	checkAgainstScalarLoop(t, fd, ref, 0xabc2)
	if sum, n := fd.ActivePEs(); sum != 0 || n != 0 {
		t.Fatalf("ActivePEs = (%g, %d) for a detector that is not a FlexCore, want (0, 0)", sum, n)
	}
}

// countingFlexCore embeds *core.FlexCore, as conformance's SIC and
// serve's gated test detector do, and overrides PrepareAt to count its
// calls.
type countingFlexCore struct {
	*core.FlexCore
	prepares int
}

func (d *countingFlexCore) PrepareAt(hs []*cmatrix.Matrix, k int, sigma2 float64) error {
	d.prepares++
	return d.FlexCore.PrepareAt(hs, k, sigma2)
}

// TestFrameDetectorWrappedFlexCore: a detector that embeds a FlexCore
// runs the one frame loop through its own methods — its PrepareAt runs
// exactly once per subcarrier of every frame, hard or soft — and its
// frames match the scalar Prepare+Detect loop.
func TestFrameDetectorWrappedFlexCore(t *testing.T) {
	cons := constellation.MustNew(16)
	det := &countingFlexCore{FlexCore: core.New(cons, core.Options{NPE: 16})}
	fd := NewFrameDetector(det)
	for i, seed := range []uint64{0xabc8, 0xabc9} {
		checkAgainstScalarLoop(t, fd, core.New(cons, core.Options{NPE: 16}), seed)
		if want := 5 * (i + 1); det.prepares != want {
			t.Fatalf("after %d 5-subcarrier frames: %d PrepareAt calls, want %d", i+1, det.prepares, want)
		}
	}
	hs, ys := frameCase(t, 0xabca, 4, 3, 5, 2)
	err := fd.DetectFrameSoft(hs, 0.1, func(k int) [][]complex128 { return ys[k] }, func(int, int, []int, [][]float64) {})
	if err != nil || det.prepares != 15 {
		t.Fatalf("a soft frame: %v after %d PrepareAt calls, want none after 15", err, det.prepares)
	}
}

// errDetector fails Prepare after a set number of successes.
type errDetector struct {
	okLeft int
	err    error
}

func (d *errDetector) Name() string { return "err-stub" }
func (d *errDetector) Prepare(h *cmatrix.Matrix, sigma2 float64) error {
	if d.okLeft == 0 {
		return d.err
	}
	d.okLeft--
	return nil
}
func (d *errDetector) Detect(y []complex128) []int { return []int{0} }
func (d *errDetector) OpCount() detector.OpCount   { return detector.OpCount{} }

// TestFrameDetectorPropagatesPrepareError: a mid-frame failure surfaces
// as DetectFrame's error after exactly the subcarriers below it were
// emitted, in order — on one lane and on a frame whose lanes claim its
// subcarriers alike, where the lowest failed k wins — and a frame whose
// geometry fails anywhere emits nothing and returns the one-lane error.
func TestFrameDetectorPropagatesPrepareError(t *testing.T) {
	want := errors.New("prepare failed")
	// checkOrder checks that emit saw exactly k = 0…n−1.
	checkOrder := func(name string, err error, order []int, n int) {
		t.Helper()
		if !errors.Is(err, want) || len(order) != n {
			t.Fatalf("%s: %v after %d emits, want the detector's error after %d", name, err, len(order), n)
		}
		for i, k := range order {
			if k != i {
				t.Fatalf("%s: emit order %v, want 0…%d", name, order, n-1)
			}
		}
	}
	var order []int
	emit := func(k int, decisions [][]int) { order = append(order, k) }

	hs, ys := frameCase(t, 0xabc3, 2, 1, 4, 1)
	err := NewFrameDetector(&errDetector{okLeft: 2, err: want}).DetectFrame(hs, 0.1, func(k int) [][]complex128 { return ys[k] }, emit)
	checkOrder("4 subcarriers", err, order, 2)

	const k, bad = 48, 30
	hs, ys = frameCase(t, 0xabc7, 4, 3, k, 2)
	burst := func(k int) [][]complex128 { return ys[k] }
	order = nil
	err = NewFrameDetector(&errDetector{okLeft: bad, err: want}).DetectFrame(hs, 0.1, burst, emit)
	checkOrder("48 subcarriers", err, order, bad)

	cons := constellation.MustNew(16)
	mixed := append([]*cmatrix.Matrix(nil), hs...)
	mixed[bad] = cmatrix.New(5, 3)
	oneStripe := core.New(cons, core.Options{NPE: 16}).PrepareAll(mixed, 0.1)
	if oneStripe == nil {
		t.Fatal("PrepareAll accepted a mixed-geometry frame")
	}
	withProcs(2, func() {
		order = nil
		err := NewFrameDetector(core.New(cons, core.Options{NPE: 16})).DetectFrame(mixed, 0.1, burst, emit)
		if err == nil || err.Error() != oneStripe.Error() || len(order) != 0 {
			t.Fatalf("mixed geometry: %v after %d emits, want %q and none", err, len(order), oneStripe)
		}
	})

	// A frame on several lanes, failing at k = 12 and at k = 30 on
	// whichever lanes claim them, returns k = 12's error after exactly
	// k = 0…11 were emitted.
	later := errors.New("later failure")
	fail := map[*cmatrix.Matrix]error{hs[12]: want, hs[30]: later}
	for _, procs := range []int{2, 4} {
		withProcs(procs, func() {
			fd := NewFrameDetector(core.New(cons, core.Options{NPE: 16}))
			if err := fd.DetectFrame(hs, 0.1, burst, func(int, [][]int) {}); err != nil {
				t.Fatal(err)
			}
			if len(fd.lanes) != procs-1 {
				t.Fatalf("GOMAXPROCS %d: %d helper lanes, want %d", procs, len(fd.lanes), procs-1)
			}
			for i := range procs {
				l := fd.lane(i)
				l.fd.fc = &failOn{flexCore: l.fd.fc, bad: fail}
			}
			var striped atomic.Bool
			order = nil
			err := fd.DetectFrame(hs, 0.1, stripedBurst(ys, &striped), emit)
			if !striped.Load() {
				t.Fatalf("GOMAXPROCS %d: the failing frame ran on one lane", procs)
			}
			checkOrder(fmt.Sprintf("GOMAXPROCS %d", procs), err, order, 12)
		})
	}
}

// failOn is a lane's detector whose PrepareAt fails on the subcarriers
// whose channel bad names, with that channel's error.
type failOn struct {
	flexCore
	bad map[*cmatrix.Matrix]error
}

func (d *failOn) PrepareAt(hs []*cmatrix.Matrix, k int, sigma2 float64) error {
	if err := d.bad[hs[k]]; err != nil {
		return err
	}
	return d.flexCore.PrepareAt(hs, k, sigma2)
}

// TestFrameDetectorReuseState covers the SetReuseState passthrough: a
// FlexCore-backed FrameDetector reports support and a re-sent frame
// hits the installed per-user state on every subcarrier with decisions
// unchanged, while a detector without the coherence cache reports
// false.
func TestFrameDetectorReuseState(t *testing.T) {
	cons, err := constellation.New(16)
	if err != nil {
		t.Fatal(err)
	}
	det := core.New(cons, core.Options{NPE: 16, PathReuse: true})
	fd := NewFrameDetector(det)
	var st core.ReuseState
	if !fd.SetReuseState(&st) {
		t.Fatal("FlexCore FrameDetector must report reuse-state support")
	}

	const nr, nt, k, s, sigma2 = 4, 3, 5, 2, 0.1
	hs, ys := frameCase(t, 0xabc4, nr, nt, k, s)
	first := runFrame(t, fd, hs, ys, sigma2)
	again := runFrame(t, fd, hs, ys, sigma2) // identical H: all external hits
	for ki := range hs {
		for si := range ys[ki] {
			for i := range first[ki][si] {
				if first[ki][si][i] != again[ki][si][i] {
					t.Fatalf("subcarrier %d symbol %d stream %d: reuse hit changed the decision", ki, si, i)
				}
			}
		}
	}
	if pp := det.PreprocessStats(); pp.CacheHits != k {
		t.Fatalf("CacheHits = %d after the re-sent frame, want %d", pp.CacheHits, k)
	}

	mmse := NewFrameDetector(detector.NewMMSE(cons))
	if mmse.SetReuseState(&st) {
		t.Fatal("MMSE FrameDetector must not report reuse-state support")
	}
}

// TestFrameDetectorRejectsEmptyFrame: an empty frame is an error for
// every detector, not a silent no-op, and nothing is emitted.
func TestFrameDetectorRejectsEmptyFrame(t *testing.T) {
	cons := constellation.MustNew(16)
	for _, det := range []detector.Detector{core.New(cons, core.Options{NPE: 16}), detector.NewMMSE(cons)} {
		emitted := 0
		err := NewFrameDetector(det).DetectFrame(nil, 0.1, func(k int) [][]complex128 { return nil }, func(k int, decisions [][]int) { emitted++ })
		if err == nil || emitted != 0 {
			t.Errorf("%s: DetectFrame(nil) = %v with %d emits, want an error and none", det.Name(), err, emitted)
		}
	}
}

// TestDetectFrameSoftMatchesScalarLoop: DetectFrameSoft hands emit, in
// subcarrier and symbol order, exactly the decisions and LLRs of scalar
// Prepare+DetectSoft per subcarrier; a detector without soft output is
// refused before anything is emitted.
func TestDetectFrameSoftMatchesScalarLoop(t *testing.T) {
	const nr, nt, k, s, sigma2 = 4, 3, 5, 2, 0.1
	hs, ys := frameCase(t, 0xabc6, nr, nt, k, s)
	burst := func(k int) [][]complex128 { return ys[k] }
	cons := constellation.MustNew(16)
	for _, b := range []core.Backend{core.BackendComplex128, core.BackendSoA32} {
		ref := core.New(cons, core.Options{NPE: 16, Backend: b})
		next := 0
		err := NewFrameDetector(core.New(cons, core.Options{NPE: 16, Backend: b})).DetectFrameSoft(hs, sigma2, burst, func(ki, si int, got []int, llrs [][]float64) {
			if ki*s+si != next {
				t.Fatalf("%s: emit(%d, %d) out of order, want vector %d", b, ki, si, next)
			}
			next++
			if si == 0 {
				if err := ref.Prepare(hs[ki], sigma2); err != nil {
					t.Fatal(err)
				}
			}
			want, wantLLR := ref.DetectSoft(ys[ki][si], sigma2)
			for u := range want {
				if got[u] != want[u] {
					t.Fatalf("%s: subcarrier %d symbol %d stream %d: frame %d, scalar %d", b, ki, si, u, got[u], want[u])
				}
				for bit, l := range wantLLR[u] {
					if math.Float64bits(llrs[u][bit]) != math.Float64bits(l) {
						t.Fatalf("%s: subcarrier %d symbol %d stream %d bit %d: LLR %v, scalar %v", b, ki, si, u, bit, llrs[u][bit], l)
					}
				}
			}
		})
		if err != nil || next != k*s {
			t.Fatalf("%s: DetectFrameSoft = %v after %d emits, want nil after %d", b, err, next, k*s)
		}
	}
	emitted := 0
	err := NewFrameDetector(detector.NewMMSE(cons)).DetectFrameSoft(hs, sigma2, burst, func(int, int, []int, [][]float64) { emitted++ })
	if !errors.Is(err, errNoSoft) || emitted != 0 {
		t.Fatalf("MMSE DetectFrameSoft = %v with %d emits, want errNoSoft and none", err, emitted)
	}
}

// TestFrameDetectorAllocFree gates the frame loop itself: once warm,
// DetectFrame and DetectFrameSoft on FlexCore (both backends) and the
// per-subcarrier prepare of any other detector run without allocating.
func TestFrameDetectorAllocFree(t *testing.T) {
	const nr, nt, k, s, sigma2 = 4, 3, 6, 4, 0.1
	hs, ys := frameCase(t, 0xabc5, nr, nt, k, s)
	burst := func(k int) [][]complex128 { return ys[k] }
	emit := func(k int, decisions [][]int) {}
	emitSoft := func(k, s int, got []int, llrs [][]float64) {}
	cons := constellation.MustNew(16)
	for _, b := range []core.Backend{core.BackendComplex128, core.BackendSoA32} {
		fd := NewFrameDetector(core.New(cons, core.Options{NPE: 16, Backend: b}))
		allocs := testing.AllocsPerRun(20, func() {
			if err := fd.DetectFrame(hs, sigma2, burst, emit); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s DetectFrame: %.1f allocs/frame, want 0", b, allocs)
		}
		allocs = testing.AllocsPerRun(20, func() {
			if err := fd.DetectFrameSoft(hs, sigma2, burst, emitSoft); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s DetectFrameSoft: %.1f allocs/frame, want 0", b, allocs)
		}
	}
	fd := NewFrameDetector(&errDetector{okLeft: 1 << 30}) // allocation-free Prepare, no FlexCore surface
	allocs := testing.AllocsPerRun(20, func() {
		for i := range hs {
			if err := fd.prepare(hs, i, sigma2); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 0 {
		t.Errorf("per-subcarrier prepare: %.1f allocs/frame, want 0", allocs)
	}
}
