package conformance

import (
	"math"
	"testing"

	"flexcore/internal/core"
)

// Backend conformance for the float32 structure-of-arrays kernel
// backend (core.BackendSoA32). Its contract — DESIGN.md §11 — is
// decisions, not distances: on the pinned corpora the soa32 decisions
// must equal the complex128 decisions exactly, while internal distances
// are only required to agree within a ULP-scaled bound (soaDistTol).
// These tests run on every matrix leg regardless of FLEXCORE_BACKEND:
// the cross-backend equality is the gate, not a per-leg invariant.

// soaGoldenConfigs are the FlexCore configurations of the golden corpus
// (goldenDetectors), rerun here on the SoA backend. The complex128 twin
// of each entry names the fixture record to compare against.
var soaGoldenConfigs = []core.Options{
	{NPE: 8},
	{NPE: 16, Threshold: 0.95},
	{NPE: 16, ExactSlicer: true}, // routes to the scalar kernels; pins the backend dispatch
}

// TestSoA32MatchesGoldenFlexCoreDecisions reruns every FlexCore
// configuration pinned in the golden corpus on the SoA32 backend and
// requires its decisions to match the checked-in complex128 fixture
// indices bit for bit, on every case and vector. A float32 rounding
// change that flips any corpus decision fails here with the exact case,
// vector and configuration named.
func TestSoA32MatchesGoldenFlexCoreDecisions(t *testing.T) {
	suite, err := LoadGoldenSuite(goldenPath)
	if err != nil {
		t.Fatalf("missing or unreadable fixture (regenerate with `go generate ./internal/conformance`): %v", err)
	}
	fixture := map[string]*GoldenCase{}
	for i := range suite.Cases {
		fixture[suite.Cases[i].Name] = &suite.Cases[i]
	}
	for _, p := range goldenCaseParams {
		gc, ok := fixture[p.name]
		if !ok {
			t.Fatalf("case %s not in fixture", p.name)
		}
		c := NewCase(p.seed, p.m, p.nt, p.nr, p.snrdB, goldenVectorsPerCase)
		// Guard against input drift first, so a failure below is
		// attributable to the backend rather than the RNG stream.
		if !equalPairs(gc.H, packMatrix(c.H)) {
			t.Fatalf("case %s: regenerated channel diverged from fixture (input drift)", p.name)
		}
		for _, opts := range soaGoldenConfigs {
			scalar := core.New(c.Cons, opts)
			want := findGoldenDetector(gc, scalar.Name())
			if want == nil {
				t.Fatalf("case %s: fixture has no detector %q", p.name, scalar.Name())
			}
			opts.Backend = core.BackendSoA32
			fc := core.New(c.Cons, opts)
			if err := fc.Prepare(c.H, c.Sigma2); err != nil {
				t.Fatalf("case %s: %s: %v", p.name, fc.Name(), err)
			}
			for v := range c.Y {
				got := fc.Detect(c.Y[v])
				if !equalIntSlices(got, want.Indices[v]) {
					t.Fatalf("case %s vector %d: %s decided %v, fixture pins %v",
						p.name, v, fc.Name(), got, want.Indices[v])
				}
			}
		}
	}
}

func findGoldenDetector(gc *GoldenCase, name string) *GoldenDetector {
	for i := range gc.Detectors {
		if gc.Detectors[i].Name == name {
			return &gc.Detectors[i]
		}
	}
	return nil
}

// TestSoA32MatchesComplex128OnMLEnsembles extends the decision gate
// beyond the five golden cases to the full seeded ML ensembles (the
// oracle corpora): at every budget the soa32 decision must equal the
// complex128 decision exactly, and the receive-domain distances of the
// two decisions must agree within soaDistTol — which, with equal
// decisions, also pins the scoring path itself.
func TestSoA32MatchesComplex128OnMLEnsembles(t *testing.T) {
	forEachMLCase(t, func(t *testing.T, c *Case) {
		for _, npe := range []int{1, 4, 16} {
			fc64 := core.New(c.Cons, core.Options{NPE: npe})
			fc32 := core.New(c.Cons, core.Options{NPE: npe, Backend: core.BackendSoA32})
			for _, fc := range []*core.FlexCore{fc64, fc32} {
				if err := fc.Prepare(c.H, c.Sigma2); err != nil {
					t.Fatal(err)
				}
			}
			for v := range c.Y {
				want := fc64.Detect(c.Y[v])
				got := fc32.Detect(c.Y[v])
				if !equalIntSlices(got, want) {
					t.Fatalf("seed %d vector %d NPE=%d: soa32 %v, complex128 %v",
						c.Seed, v, npe, got, want)
				}
				d64, d32 := c.Score(v, want), c.Score(v, got)
				if math.Abs(d32-d64) > soaDistTol*(1+d64) {
					t.Fatalf("seed %d vector %d NPE=%d: soa32 dist %.12g vs complex128 %.12g exceeds tolerance",
						c.Seed, v, npe, d32, d64)
				}
			}
		}
	})
}
