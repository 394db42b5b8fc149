package conformance

import (
	"fmt"
	"math"
	"testing"

	"flexcore/internal/cmatrix"
	"flexcore/internal/constellation"
	"flexcore/internal/core"
)

// TestPathPrefixProperty pins the premise of serving a smaller path
// budget as a lane cap on a larger one (ROADMAP item 1, the degrade-lane
// collapse): for one channel, the position vectors selected at N_PE = k
// are the first k selected at N_PE = max — same vectors, same order,
// same LogP bits — and an a-FlexCore threshold only cuts that list
// short. The pre-processing search has this by construction (N_PE only
// bounds its loop), including where probabilities tie exactly; the test
// walks the golden geometries plus two channels built to tie: an
// identity channel (every level has the same Pe) and one so clean that
// every level sits on the Pe floor.
func TestPathPrefixProperty(t *testing.T) {
	backend := envBackend(t)
	type chanCase struct {
		name   string
		cons   *constellation.Constellation
		h      *cmatrix.Matrix
		sigma2 float64
	}
	var cases []chanCase
	for _, p := range goldenCaseParams {
		c := NewCase(p.seed, p.m, p.nt, p.nr, p.snrdB, 1)
		cases = append(cases, chanCase{p.name, c.Cons, c.H, c.Sigma2})
	}
	cases = append(cases,
		chanCase{"tie-identity-16qam-3x3", constellation.MustNew(16), cmatrix.Identity(3), 0.1},
		chanCase{"tie-pe-floor-qpsk-4x4", constellation.MustNew(4), cmatrix.Identity(4), 1e-6},
	)

	paths := func(c chanCase, npe int, thr float64) []core.Path {
		t.Helper()
		fc := core.New(c.cons, core.Options{NPE: npe, Threshold: thr, Backend: backend})
		if err := fc.Prepare(c.h, c.sigma2); err != nil {
			t.Fatal(err)
		}
		return fc.Paths() // fc is never prepared again, so the set stays valid
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			top := 256
			if total := math.Pow(float64(c.cons.Size()), float64(c.h.Cols)); total < float64(top) {
				top = int(total)
			}
			full := paths(c, top, 0)
			if len(full) != top {
				t.Fatalf("N_PE=%d selected %d paths", top, len(full))
			}
			isPrefix := func(what string, got []core.Path, want int) {
				t.Helper()
				if len(got) != want {
					t.Fatalf("%s: %d paths, want the first %d of N_PE=%d", what, len(got), want, top)
				}
				for i, p := range got {
					if !equalIntSlices(p.Ranks, full[i].Ranks) || math.Float64bits(p.LogP) != math.Float64bits(full[i].LogP) {
						t.Fatalf("%s: path %d is %v (logP %v), N_PE=%d has %v (logP %v) there",
							what, i, p.Ranks, p.LogP, top, full[i].Ranks, full[i].LogP)
					}
				}
			}
			for k := 1; k <= top; k++ {
				isPrefix(fmt.Sprintf("N_PE=%d", k), paths(c, k, 0), k)
			}
			for _, thr := range []float64{0.5, 0.95, 0.999} {
				stop := len(paths(c, top, thr))
				for _, k := range []int{1, 2, 3, 8, 16, 64, top} {
					if k > top {
						continue
					}
					isPrefix(fmt.Sprintf("N_PE=%d θ=%g", k, thr), paths(c, k, thr), min(k, stop))
				}
			}
		})
	}
}
