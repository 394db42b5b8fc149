package core

import (
	"math"
	"testing"

	"flexcore/internal/channel"
	"flexcore/internal/cmatrix"
	"flexcore/internal/constellation"
)

// Tests of the SoA float32 backend (DESIGN.md §11). The contract is
// decisions, not bits: on seeded corpora the soa32 backend must pick
// exactly the symbol vectors the complex128 backend picks (the float32
// slicer can only disagree within ~1e-6 of a decision boundary, which
// these fixed seeds are checked not to straddle), while distances are
// internal and only bounded. The gates below also pin the backend's
// zero-allocation steady state and its monotone-in-N_PE behaviour.

// backendPair builds the same detector under both backends.
func backendPair(cons *constellation.Constellation, opts Options) (c128, soa *FlexCore) {
	opts.Backend = BackendComplex128
	c128 = New(cons, opts)
	opts.Backend = BackendSoA32
	soa = New(cons, opts)
	return c128, soa
}

// TestSoA32MatchesComplex128Decisions is the backend property test of
// the acceptance criteria: identical decisions on 300 seeded 64-QAM
// channels at N_PE ∈ {1, 8, 128}, with three noisy vectors per channel.
func TestSoA32MatchesComplex128Decisions(t *testing.T) {
	cons := constellation.MustNew(64)
	const nt, channels, vectors = 6, 300, 3
	sigma2 := channel.Sigma2FromSNRdB(20, 1)
	for _, npe := range []int{1, 8, 128} {
		c128, soa := backendPair(cons, Options{NPE: npe})
		for ch := 0; ch < channels; ch++ {
			rng := newRng(3000 + uint64(ch))
			h := channel.Rayleigh(rng, nt, nt)
			if err := c128.Prepare(h, sigma2); err != nil {
				t.Fatal(err)
			}
			if err := soa.Prepare(h, sigma2); err != nil {
				t.Fatal(err)
			}
			if c128.ActivePaths() != soa.ActivePaths() {
				t.Fatalf("NPE=%d ch=%d: active paths %d (c128) vs %d (soa32)",
					npe, ch, c128.ActivePaths(), soa.ActivePaths())
			}
			for v := 0; v < vectors; v++ {
				s := randSymbols(rng, cons, nt)
				y := transmit(rng, h, cons, s, sigma2)
				want := c128.Detect(y)
				got := soa.Detect(y)
				if !equalInts(got, want) {
					t.Fatalf("NPE=%d ch=%d vector %d: soa32 %v, complex128 %v", npe, ch, v, got, want)
				}
			}
		}
	}
}

// TestSoA32PathsMatchComplex128 pins the pre-processing side on its own:
// both backends run one search, so on the decision corpus their Paths()
// are the same position vectors in the same order with the same LogP
// bits — and both are what the §3.1.1 specification emits.
func TestSoA32PathsMatchComplex128(t *testing.T) {
	cons := constellation.MustNew(64)
	sigma2 := channel.Sigma2FromSNRdB(20, 1)
	c128, soa := backendPair(cons, Options{NPE: 128})
	for ch := 0; ch < 100; ch++ {
		rng := newRng(3500 + uint64(ch))
		h := channel.Rayleigh(rng, 6, 6)
		if err := c128.Prepare(h, sigma2); err != nil {
			t.Fatal(err)
		}
		if err := soa.Prepare(h, sigma2); err != nil {
			t.Fatal(err)
		}
		want, _ := specFindPaths(&c128.frame[0].model, 128, 0)
		var none PreprocessStats
		sameSearch(t, "complex128 vs spec", c128.Paths(), want, none, none)
		sameSearch(t, "soa32 vs complex128", soa.Paths(), c128.Paths(), none, none)
		if a, b := c128.PreprocessStats(), soa.PreprocessStats(); a != b {
			t.Fatalf("ch=%d: stats %+v (c128) vs %+v (soa32)", ch, a, b)
		}
	}
}

// TestSoA32ThresholdStops checks a-FlexCore stopping across backends:
// the shared search activates the same paths on both, and decisions on
// the activated set match.
func TestSoA32ThresholdStops(t *testing.T) {
	cons := constellation.MustNew(64)
	sigma2 := channel.Sigma2FromSNRdB(18, 1)
	c128, soa := backendPair(cons, Options{NPE: 64, Threshold: 0.95})
	for ch := 0; ch < 100; ch++ {
		rng := newRng(3700 + uint64(ch))
		h := channel.Rayleigh(rng, 6, 6)
		if err := c128.Prepare(h, sigma2); err != nil {
			t.Fatal(err)
		}
		if err := soa.Prepare(h, sigma2); err != nil {
			t.Fatal(err)
		}
		if a, b := c128.ActivePaths(), soa.ActivePaths(); a != b {
			t.Fatalf("ch=%d: active paths %d (c128) vs %d (soa32)", ch, a, b)
		}
		s := randSymbols(rng, cons, 6)
		y := transmit(rng, h, cons, s, sigma2)
		if !equalInts(soa.Detect(y), c128.Detect(y)) {
			t.Fatalf("ch=%d: threshold decisions diverged", ch)
		}
	}
}

// TestSoA32MonotoneInNPE checks the monotone-in-N_PE conformance
// invariant within the soa32 backend: the receive-domain distance of the
// decision never increases with the path budget (the search's first k
// emissions are independent of N_PE). The tolerance is the
// backend's documented ULP-scaled bound, not the complex128 1e-9.
func TestSoA32MonotoneInNPE(t *testing.T) {
	const soaTol = 1e-5
	cons := constellation.MustNew(16)
	const nt = 4
	sigma2 := channel.Sigma2FromSNRdB(14, 1)
	budgets := []int{1, 2, 4, 8, 16, 64}
	dets := make([]*FlexCore, len(budgets))
	for i, npe := range budgets {
		dets[i] = New(cons, Options{NPE: npe, Backend: BackendSoA32})
	}
	for ch := 0; ch < 60; ch++ {
		rng := newRng(3900 + uint64(ch))
		h := channel.Rayleigh(rng, nt, nt)
		s := randSymbols(rng, cons, nt)
		y := transmit(rng, h, cons, s, sigma2)
		prev := math.Inf(1)
		for i, fc := range dets {
			if err := fc.Prepare(h, sigma2); err != nil {
				t.Fatal(err)
			}
			got := fc.Detect(y)
			x := make([]complex128, nt)
			for j, k := range got {
				x[j] = cons.Point(k)
			}
			r := h.MulVec(x)
			var d float64
			for j := range r {
				dv := y[j] - r[j]
				d += real(dv)*real(dv) + imag(dv)*imag(dv)
			}
			if d > prev*(1+soaTol)+soaTol {
				t.Fatalf("ch=%d: distance %.9g at NPE=%d above %.9g at smaller budget", ch, d, budgets[i], prev)
			}
			if d < prev {
				prev = d
			}
		}
	}
}

// TestSoA32ParallelAndBatchMatchSequential pins soa32 DetectBatch ≡
// looped Detect: a burst descends the same planes and plan with the same
// scratch, one vector after the other. (The name predates the removal of
// the in-detector worker pool.)
func TestSoA32ParallelAndBatchMatchSequential(t *testing.T) {
	cons := constellation.MustNew(16)
	const nt = 8
	sigma2 := channel.Sigma2FromSNRdB(14, 1)
	fc := New(cons, Options{NPE: 48, Backend: BackendSoA32})
	rng := newRng(4100)
	for trial := 0; trial < 40; trial++ {
		h := channel.Rayleigh(rng, nt, nt)
		if err := fc.Prepare(h, sigma2); err != nil {
			t.Fatal(err)
		}
		ys := make([][]complex128, 6)
		for v := range ys {
			s := randSymbols(rng, cons, nt)
			ys[v] = transmit(rng, h, cons, s, sigma2)
		}
		want := make([][]int, len(ys))
		for v := range ys {
			want[v] = append([]int(nil), fc.Detect(ys[v])...)
		}
		got := fc.DetectBatch(ys)
		for v := range ys {
			if !equalInts(got[v], want[v]) {
				t.Fatalf("trial %d vector %d: soa32 batch diverged from looped Detect", trial, v)
			}
		}
	}
}

// TestSoA32StrictAndFallback checks the deactivation semantics: under
// StrictDeactivation a far-outside received point deactivates every
// lane and the clamped-SIC fallback resolves the vector, exactly like
// the scalar backend.
func TestSoA32StrictAndFallback(t *testing.T) {
	cons := constellation.MustNew(16)
	fc := New(cons, Options{NPE: 4, StrictDeactivation: true, Backend: BackendSoA32})
	if err := fc.Prepare(cmatrix.Identity(2), 0.01); err != nil {
		t.Fatal(err)
	}
	y := []complex128{complex(100, 100), complex(-100, 100)}
	got := fc.Detect(y)
	if fc.FallbackDetections() != 1 {
		t.Fatalf("fallback counter %d", fc.FallbackDetections())
	}
	want := []int{cons.Slice(y[0]), cons.Slice(y[1])}
	if !equalInts(got, want) {
		t.Fatalf("fallback got %v want %v", got, want)
	}
}

// TestSoA32FrameSelect checks the PrepareAll/Select pipeline under the
// soa32 backend against per-subcarrier scalar Prepare under the same
// backend (and, transitively through the decision tests, complex128).
func TestSoA32FrameSelect(t *testing.T) {
	cons := constellation.MustNew(16)
	const nr, nt, nSC = 6, 4, 8
	sigma2 := 0.05
	hs := frameChannels(4200, nr, nt, nSC)
	frame := New(cons, Options{NPE: 32, Backend: BackendSoA32})
	scalar := New(cons, Options{NPE: 32, Backend: BackendSoA32})
	if err := frame.PrepareAll(hs, sigma2); err != nil {
		t.Fatal(err)
	}
	rng := newRng(4201)
	for k := 0; k < nSC; k++ {
		if err := frame.Select(k); err != nil {
			t.Fatal(err)
		}
		if err := scalar.Prepare(hs[k], sigma2); err != nil {
			t.Fatal(err)
		}
		s := randSymbols(rng, cons, nt)
		y := transmit(rng, hs[k], cons, s, sigma2)
		if !equalInts(frame.Detect(y), scalar.Detect(y)) {
			t.Fatalf("subcarrier %d: frame-selected soa32 decision diverged from scalar Prepare", k)
		}
	}
}

// TestSoA32DetectSteadyStateAllocFree gates the backend's symbol-rate
// zero-allocation contract: after the first detection builds the planes,
// Detect — including the Prepare-triggered plane refresh — allocates
// nothing.
func TestSoA32DetectSteadyStateAllocFree(t *testing.T) {
	cons := constellation.MustNew(64)
	const nt = 12
	sigma2 := channel.Sigma2FromSNRdB(21.6, 1)
	rng := newRng(4300)
	fc := New(cons, Options{NPE: 128, Backend: BackendSoA32})
	hs := []*cmatrix.Matrix{channel.Rayleigh(rng, nt, nt), channel.Rayleigh(rng, nt, nt)}
	ys := make([][]complex128, 2)
	for i, h := range hs {
		if err := fc.Prepare(h, sigma2); err != nil {
			t.Fatal(err)
		}
		s := randSymbols(rng, cons, nt)
		ys[i] = transmit(rng, h, cons, s, sigma2)
		fc.Detect(ys[i])
	}
	allocs := testing.AllocsPerRun(50, func() {
		if fc.Detect(ys[0]) == nil {
			t.Fatal("no result")
		}
	})
	if allocs != 0 {
		t.Errorf("soa32 Detect: %.1f allocs/op in steady state, want 0", allocs)
	}
	// Prepare + refresh + Detect across alternating channels.
	i := 0
	allocs = testing.AllocsPerRun(50, func() {
		i++
		if err := fc.Prepare(hs[i%2], sigma2); err != nil {
			t.Fatal(err)
		}
		fc.Detect(ys[i%2])
	})
	if allocs != 0 {
		t.Errorf("soa32 Prepare+Detect: %.1f allocs/op in steady state, want 0", allocs)
	}
}

// TestSoA32PrepareSteadyStateAllocFree gates the float32 search pool:
// steady-state Prepare under the soa32 backend runs entirely out of the
// packed-key finder's arenas.
func TestSoA32PrepareSteadyStateAllocFree(t *testing.T) {
	cons := constellation.MustNew(16)
	const nr, nt = 8, 4
	hs := frameChannels(4400, nr, nt, 2)
	fc := New(cons, Options{NPE: 32, Backend: BackendSoA32})
	for _, h := range hs {
		if err := fc.Prepare(h, 0.05); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	allocs := testing.AllocsPerRun(50, func() {
		i++
		if err := fc.Prepare(hs[i%2], 0.05); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("soa32 Prepare: %.1f allocs/op in steady state, want 0", allocs)
	}
}

// TestParseBackend pins the CLI spellings.
func TestParseBackend(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Backend
		ok   bool
	}{
		{"", BackendComplex128, true},
		{"complex128", BackendComplex128, true},
		{"c128", BackendComplex128, true},
		{"soa32", BackendSoA32, true},
		{"f32", BackendSoA32, true},
		{"float32", BackendSoA32, true},
		{"avx", BackendComplex128, false},
	} {
		got, ok := ParseBackend(tc.in)
		if got != tc.want || ok != tc.ok {
			t.Errorf("ParseBackend(%q) = %v, %v; want %v, %v", tc.in, got, ok, tc.want, tc.ok)
		}
	}
	if BackendComplex128.String() != "complex128" || BackendSoA32.String() != "soa32" {
		t.Error("Backend.String spellings drifted")
	}
}

// visitedPerVector detects `vectors` noisy vectors on each of `channels`
// seeded Rayleigh draws and returns the mean per vector of
// Scratch.Visited — the nodes the bounded descent sliced — of Plan.Nodes,
// the trie's distinct nodes, and of Scratch.Chains, the chains it sliced.
func visitedPerVector(t *testing.T, qam, nt, npe int, sigma2 float64, channels, vectors int) (visited, nodes, chains float64) {
	t.Helper()
	cons := constellation.MustNew(qam)
	fc := New(cons, Options{NPE: npe, Backend: BackendSoA32})
	for ch := 0; ch < channels; ch++ {
		rng := newRng(4200 + uint64(ch))
		h := channel.Rayleigh(rng, nt, nt)
		if err := fc.Prepare(h, sigma2); err != nil {
			t.Fatal(err)
		}
		for v := 0; v < vectors; v++ {
			fc.Detect(transmit(rng, h, cons, randSymbols(rng, cons, nt), sigma2))
			visited, chains = visited+float64(fc.soa.scratch.Visited), chains+float64(fc.soa.scratch.Chains)
			nodes += float64(fc.soa.prep.Plan.Nodes())
		}
	}
	n := float64(channels * vectors)
	return visited / n, nodes / n, chains / n
}

// TestBoundedDescentVisitedShare counts the work the running bound
// saves at the two benchmark geometries — the descent slices about a
// fifth of the paper-geometry trie (`frame-detect`), a seventh of the
// shallow one (`serve-static`) — and the work the sibling chains save on
// the shallow one. The logged sweep is EXPERIMENTS.md's table: pruning
// fades as SNR falls, because the best leaf's distance grows with noise.
func TestBoundedDescentVisitedShare(t *testing.T) {
	for _, g := range []struct {
		name         string
		qam, nt, npe int
		sigma2, max  float64
	}{
		{"12x12 64-QAM N_PE=128 16 dB", 64, 12, 128, channel.Sigma2FromSNRdB(16, 1), 0.25},
		{"4x4 16-QAM N_PE=512 sigma2=0.05", 16, 4, 512, 0.05, 0.18},
	} {
		visited, nodes, _ := visitedPerVector(t, g.qam, g.nt, g.npe, g.sigma2, 40, 4)
		t.Logf("visited share %s: %.3f (%.0f of %.0f nodes per vector)", g.name, visited/nodes, visited, nodes)
		if visited > g.max*nodes {
			t.Errorf("%s: descent sliced %.3f of the trie's nodes, want ≤ %.2f", g.name, visited/nodes, g.max)
		}
	}
	for _, db := range []float64{6, 10, 16, 21.6} {
		visited, nodes, _ := visitedPerVector(t, 64, 12, 128, channel.Sigma2FromSNRdB(db, 1), 40, 4)
		t.Logf("visited share 12x12 64-QAM N_PE=128 %.1f dB: %.3f (%.0f of %.0f nodes per vector)", db, visited/nodes, visited, nodes)
	}
	// The sibling share: the visited nodes that reuse the row half of the
	// slicer step their chain's first one computed (DESIGN.md §11.2).
	visited, _, chains := visitedPerVector(t, 16, 4, 512, 0.05, 40, 4)
	t.Logf("sibling share 4x4 16-QAM N_PE=512 sigma2=0.05: %.3f (%.1f chains for %.0f visited nodes per vector)", 1-chains/visited, chains, visited)
	if 1-chains/visited < 0.75 {
		t.Errorf("4x4 16-QAM N_PE=512: sibling share %.3f, want ≥ 0.75", 1-chains/visited)
	}
}

// TestPlanBytesPerPathSet logs what one path set's descent plan holds at
// each bench geometry, averaged over 40 seeded Rayleigh channels: its
// node bytes and its whole footprint (Plan.Bytes: the nodes, a run bound
// and an origin per lane), beside the level-major layout it replaced — a
// node plane of n·(N_PE+8) eight-byte slots whatever the set, plus a
// top level and an owner per lane. It pins the node bytes at 4×4 16-QAM
// N_PE 512 to at most 40 % of that plane: the nodes are what a reused
// descent has to stream in.
func TestPlanBytesPerPathSet(t *testing.T) {
	const channels = 40
	for _, g := range benchGeometries {
		cons := constellation.MustNew(g.qam)
		rng := newRng(3800)
		fc := New(cons, Options{NPE: g.npe, Backend: BackendSoA32})
		nodes, total := 0, 0
		for range channels {
			if err := fc.Prepare(channel.Rayleigh(rng, g.nt, g.nt), g.sigma2); err != nil {
				t.Fatal(err)
			}
			nodes += 8 * fc.soa.prep.Plan.Nodes()
			total += fc.soa.prep.Plan.Bytes()
		}
		nodes, total = nodes/channels, total/channels
		plane := 8 * g.nt * (g.npe + 8)
		t.Logf("plan bytes %s (%dx%d %d-QAM N_PE=%d): %d node, %d in all per path set; level-major: %d node, %d in all",
			g.name, g.nt, g.nt, g.qam, g.npe, nodes, total, plane, plane+8*g.npe)
		if g.nt == 4 && float64(nodes) > 0.40*float64(plane) {
			t.Errorf("%s: %d node bytes per path set, want at most 40 %% of the level-major plane's %d", g.name, nodes, plane)
		}
	}
}

// TestNonFiniteInputFallsBack: a received vector of NaNs gives every
// path a NaN distance on either backend; none wins — bounded walk or
// not — so the detection is the clamped-SIC fallback's and is counted
// as one. A finite vector under the same Prepare is not.
func TestNonFiniteInputFallsBack(t *testing.T) {
	cons := constellation.MustNew(16)
	const nt = 4
	sigma2 := channel.Sigma2FromSNRdB(18, 1)
	rng := newRng(4300)
	h := channel.Rayleigh(rng, nt, nt)
	y := transmit(rng, h, cons, randSymbols(rng, cons, nt), sigma2)
	bad := make([]complex128, nt)
	for i := range bad {
		bad[i] = complex(math.NaN(), math.NaN())
	}
	c128, soa := backendPair(cons, Options{NPE: 32})
	for _, fc := range []*FlexCore{c128, soa} {
		name := fc.opts.Backend
		if err := fc.Prepare(h, sigma2); err != nil {
			t.Fatal(err)
		}
		fc.Detect(y)
		if n := fc.FallbackDetections(); n != 0 {
			t.Errorf("%v: finite vector counted %d fallbacks", name, n)
		}
		for _, k := range fc.Detect(bad) {
			if k < 0 || k >= cons.Size() {
				t.Errorf("%v: NaN vector decided index %d", name, k)
			}
		}
		if n := fc.FallbackDetections(); n != 1 {
			t.Errorf("%v: NaN vector counted %d fallbacks, want 1", name, n)
		}
	}
}
