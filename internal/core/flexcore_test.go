package core

import (
	"math/rand/v2"
	"testing"

	"flexcore/internal/channel"
	"flexcore/internal/cmatrix"
	"flexcore/internal/constellation"
	"flexcore/internal/detector"
)

// Compile-time interface check.
var _ detector.Detector = (*FlexCore)(nil)

func newRng(seed uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, seed|1)) }

func randSymbols(rng *rand.Rand, cons *constellation.Constellation, nt int) []int {
	s := make([]int, nt)
	for i := range s {
		s[i] = rng.IntN(cons.Size())
	}
	return s
}

func transmit(rng *rand.Rand, h *cmatrix.Matrix, cons *constellation.Constellation, s []int, sigma2 float64) []complex128 {
	x := make([]complex128, len(s))
	for i, k := range s {
		x[i] = cons.Point(k)
	}
	y := h.MulVec(x)
	if sigma2 > 0 {
		channel.AddAWGN(rng, y, sigma2)
	}
	return y
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestFlexCoreNoiselessRecovery(t *testing.T) {
	rng := newRng(201)
	for _, m := range []int{4, 16, 64} {
		cons := constellation.MustNew(m)
		fc := New(cons, Options{NPE: 8})
		for trial := 0; trial < 10; trial++ {
			h := channel.Rayleigh(rng, 6, 6)
			if err := fc.Prepare(h, 1e-9); err != nil {
				t.Fatal(err)
			}
			s := randSymbols(rng, cons, 6)
			y := transmit(rng, h, cons, s, 0)
			if got := fc.Detect(y); !equalInts(got, s) {
				t.Fatalf("%d-QAM trial %d: got %v want %v", m, trial, got, s)
			}
		}
	}
}

// serOn measures SER on a shared sequence of channels and noise draws.
func serOn(t *testing.T, det detector.Detector, cons *constellation.Constellation, nt int, snrdB float64, trials int, seed uint64) float64 {
	t.Helper()
	rng := newRng(seed)
	sigma2 := channel.Sigma2FromSNRdB(snrdB, 1)
	errs, total := 0, 0
	for i := 0; i < trials; i++ {
		h := channel.Rayleigh(rng, nt, nt)
		if err := det.Prepare(h, sigma2); err != nil {
			t.Fatal(err)
		}
		for v := 0; v < 4; v++ {
			s := randSymbols(rng, cons, nt)
			y := transmit(rng, h, cons, s, sigma2)
			got := det.Detect(y)
			for j := range s {
				if got[j] != s[j] {
					errs++
				}
				total++
			}
		}
	}
	return float64(errs) / float64(total)
}

func TestFlexCoreApproachesMLWithManyPaths(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical test")
	}
	// With a large path budget FlexCore's uncoded SER approaches ML up to
	// the residual cost of the approximate symbol ordering and the edge
	// deactivations of §3.2 (the paper's own near-optimality is stated on
	// *coded throughput*, where this residual nearly vanishes — the link-
	// level tests in internal/phy check that form of the claim).
	cons := constellation.MustNew(16)
	const nt, snr, trials, seed = 4, 13, 600, 202
	serML := serOn(t, detector.NewSphere(cons), cons, nt, snr, trials, seed)
	serFC := serOn(t, New(cons, Options{NPE: 256}), cons, nt, snr, trials, seed)
	t.Logf("SER: ML=%.4f FlexCore(256)=%.4f", serML, serFC)
	if serFC > serML*1.6+2e-3 {
		t.Fatalf("FlexCore(256) SER %.4f too far above ML %.4f", serFC, serML)
	}
}

func TestFlexCoreSERImprovesWithNPE(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical test")
	}
	cons := constellation.MustNew(16)
	const nt, snr, trials, seed = 4, 13, 400, 203
	ser1 := serOn(t, New(cons, Options{NPE: 1}), cons, nt, snr, trials, seed)
	ser8 := serOn(t, New(cons, Options{NPE: 8}), cons, nt, snr, trials, seed)
	ser64 := serOn(t, New(cons, Options{NPE: 64}), cons, nt, snr, trials, seed)
	t.Logf("SER: NPE1=%.4f NPE8=%.4f NPE64=%.4f", ser1, ser8, ser64)
	if !(ser64 < ser8 && ser8 < ser1) {
		t.Fatalf("SER not improving with NPE: %v %v %v", ser1, ser8, ser64)
	}
}

func TestFlexCoreBeatsFCSDAtEqualPaths(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical test")
	}
	// The paper's central claim (Fig. 9): at the same path budget,
	// FlexCore outperforms the FCSD.
	cons := constellation.MustNew(16)
	const nt, snr, trials, seed = 6, 12, 400, 204
	serFC := serOn(t, New(cons, Options{NPE: 16}), cons, nt, snr, trials, seed)
	serFCSD := serOn(t, detector.NewFCSD(cons, 1), cons, nt, snr, trials, seed)
	t.Logf("SER at 16 paths: FlexCore=%.4f FCSD=%.4f", serFC, serFCSD)
	if serFC > serFCSD {
		t.Fatalf("FlexCore (%.4f) worse than FCSD (%.4f) at equal paths", serFC, serFCSD)
	}
}

func TestAFlexCoreAdaptsToChannel(t *testing.T) {
	rng := newRng(205)
	cons := constellation.MustNew(64)
	fc := New(cons, Options{NPE: 64, Threshold: 0.95})
	// Well-conditioned, high-SNR: nearly one active path.
	if err := fc.Prepare(cmatrix.Identity(8), channel.Sigma2FromSNRdB(30, 1)); err != nil {
		t.Fatal(err)
	}
	if fc.ActivePaths() > 2 {
		t.Fatalf("identity channel at 30 dB: %d active paths", fc.ActivePaths())
	}
	// Poorly conditioned or noisy: many more.
	h := channel.Rayleigh(rng, 8, 8)
	if err := fc.Prepare(h, channel.Sigma2FromSNRdB(10, 1)); err != nil {
		t.Fatal(err)
	}
	many := fc.ActivePaths()
	if many <= 2 {
		t.Fatalf("noisy random channel: only %d active paths", many)
	}
	if many > 64 {
		t.Fatalf("active paths %d exceed NPE", many)
	}
}

func TestFlexCoreFallbackOnFullDeactivation(t *testing.T) {
	cons := constellation.MustNew(16)
	fc := New(cons, Options{NPE: 4, StrictDeactivation: true})
	if err := fc.Prepare(cmatrix.Identity(2), 0.01); err != nil {
		t.Fatal(err)
	}
	// A received point far outside the constellation deactivates every
	// candidate offset on every path.
	y := []complex128{complex(100, 100), complex(-100, 100)}
	got := fc.Detect(y)
	if len(got) != 2 {
		t.Fatal("fallback produced no result")
	}
	if fc.FallbackDetections() != 1 {
		t.Fatalf("fallback counter %d", fc.FallbackDetections())
	}
	// The clamped fallback must return the nearest corner symbols.
	want := []int{cons.Slice(y[0]), cons.Slice(y[1])}
	if !equalInts(got, want) {
		t.Fatalf("fallback got %v want %v", got, want)
	}
}

func TestFlexCoreOpCounters(t *testing.T) {
	rng := newRng(207)
	cons := constellation.MustNew(16)
	fc := New(cons, Options{NPE: 32})
	h := channel.Rayleigh(rng, 8, 8)
	if err := fc.Prepare(h, 0.05); err != nil {
		t.Fatal(err)
	}
	pp := fc.PreprocessStats()
	if pp.RealMuls == 0 || pp.Expanded == 0 {
		t.Fatal("pre-processing stats empty")
	}
	s := randSymbols(rng, cons, 8)
	fc.Detect(transmit(rng, h, cons, s, 0.05))
	ops := fc.OpCount()
	if ops.Detections != 1 || ops.RealMuls == 0 || ops.Nodes == 0 {
		t.Fatalf("op counters wrong: %+v", ops)
	}
}

func TestFlexCoreValidation(t *testing.T) {
	cons := constellation.MustNew(16)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("NPE=0 accepted")
			}
		}()
		New(cons, Options{NPE: 0})
	}()
	fc := New(cons, Options{NPE: 4})
	h := cmatrix.New(2, 4) // fewer rx antennas than streams
	if err := fc.Prepare(h, 0.1); err == nil {
		t.Fatal("underdetermined channel accepted")
	}
}

func TestFlexCoreNameIncludesVariant(t *testing.T) {
	cons := constellation.MustNew(16)
	if New(cons, Options{NPE: 8}).Name() != "FlexCore(NPE=8)" {
		t.Fatal("plain name")
	}
	n := New(cons, Options{NPE: 8, Threshold: 0.95}).Name()
	if n != "a-FlexCore(NPE=8,θ=0.95)" {
		t.Fatalf("adaptive name %q", n)
	}
}

// benchBackends names the two hot-path backends for the sub-benchmarks
// below; the acceptance record BENCH_PR6.json compares the pair.
var benchBackends = []struct {
	name    string
	backend Backend
}{
	{"complex128", BackendComplex128},
	{"soa32", BackendSoA32},
}

func BenchmarkFlexCoreDetect12x12_64QAM_128(b *testing.B) {
	for _, bb := range benchBackends {
		b.Run(bb.name, func(b *testing.B) {
			rng := newRng(208)
			cons := constellation.MustNew(64)
			fc := New(cons, Options{NPE: 128, Backend: bb.backend})
			sigma2 := channel.Sigma2FromSNRdB(21.6, 1)
			h := channel.Rayleigh(rng, 12, 12)
			if err := fc.Prepare(h, sigma2); err != nil {
				b.Fatal(err)
			}
			s := randSymbols(rng, cons, 12)
			y := transmit(rng, h, cons, s, sigma2)
			fc.Detect(y) // build the backend's planes outside the timed loop
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fc.Detect(y)
			}
		})
	}
}

func BenchmarkFlexCorePreprocess12x12_64QAM_128(b *testing.B) {
	rng := newRng(209)
	cons := constellation.MustNew(64)
	sigma2 := channel.Sigma2FromSNRdB(21.6, 1)
	h := channel.Rayleigh(rng, 12, 12)
	qr := cmatrix.SortedQR(h, cmatrix.OrderSQRD)
	m := NewModel(qr.R, sigma2, cons)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FindPaths(m, 128, 0)
	}
}

func TestFlexCoreDenseConstellation256(t *testing.T) {
	// The paper's §3.1.1 discusses very dense constellations; 256-QAM
	// must work end to end (pre-processing, LUT ordering, detection).
	rng := newRng(210)
	cons := constellation.MustNew(256)
	fc := New(cons, Options{NPE: 64})
	for trial := 0; trial < 5; trial++ {
		h := channel.Rayleigh(rng, 4, 4)
		if err := fc.Prepare(h, 1e-8); err != nil {
			t.Fatal(err)
		}
		s := randSymbols(rng, cons, 4)
		y := transmit(rng, h, cons, s, 0)
		if got := fc.Detect(y); !equalInts(got, s) {
			t.Fatalf("trial %d: 256-QAM noiseless recovery failed", trial)
		}
	}
	// Deep ranks must be usable on 256-QAM too.
	m := NewModel(diagMatrix([]float64{0.4, 1.0, 1.6, 0.8}), 0.15, cons)
	paths, _ := FindPaths(m, 256, 0)
	if len(paths) != 256 {
		t.Fatalf("%d paths", len(paths))
	}
}

// TestEvalPathStopsAtBound pins evalPath's early exit: a path whose
// partial distance reaches the bound stops at that level. With bound 0
// the first (top) level's increment already reaches it, so the walk must
// return ok = false with exactly that increment.
func TestEvalPathStopsAtBound(t *testing.T) {
	rng := newRng(214)
	cons := constellation.MustNew(16)
	fc := New(cons, Options{NPE: 1})
	h := channel.Rayleigh(rng, 4, 4)
	if err := fc.Prepare(h, 0.1); err != nil {
		t.Fatal(err)
	}
	ybar := fc.qr.Ybar(transmit(rng, h, cons, randSymbols(rng, cons, 4), 0.1))
	top := fc.n - 1
	b := ybar[top]
	rii := real(fc.qr.R.At(top, top))
	k, _ := cons.KthClosestClamped(b/complex(rii, 0), 1)
	want := cmatrix.PEDIncrement(b, rii, cons.Point(k))
	if want <= 0 {
		t.Fatalf("top-level increment %v: the case cannot tell a stop from a walk", want)
	}
	ped, ok := fc.evalPath(ybar, []int{1, 1, 1, 1}, make([]int, 4), make([]complex128, 4), 0)
	if ok || ped != want {
		t.Fatalf("bound 0: got (%v, %v), want (%v, false) from the top level alone", ped, ok, want)
	}
}
