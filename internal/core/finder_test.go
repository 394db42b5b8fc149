package core

import (
	"math"
	"sort"
	"testing"

	"flexcore/internal/constellation"
)

// Tests of the merge finder (pathFinder.find) against an executable
// specification of §3.1.1, plus its behaviour on models no channel gives.

// specFindPaths is the pre-processing search as §3.1.1 states it, kept
// as the specification the finder is tested against: a candidate list
// held in descending probability; take its head into E, append every
// legal child (Fig. 5: a node made by incrementing level l only
// increments levels w ≤ l), re-sort — stably, so equal probabilities
// leave in the order they entered — and trim to N_PE. Probabilities are
// carried both ways the paper writes them: log Pc(child) = log Pc + log
// Pe(w) for the order, Pc(child) = Pc·Pe(w) for the a-FlexCore sum.
func specFindPaths(m *Model, nPE int, stopThreshold float64) ([]Path, PreprocessStats) {
	type node struct {
		ranks    []int
		logP, pc float64
		lastInc  int
	}
	n := m.Levels()
	if total := math.Pow(float64(m.M), float64(n)); float64(nPE) > total {
		nPE = int(total)
	}
	if nPE < 1 {
		nPE = 1
	}
	root := node{ranks: make([]int, n), logP: m.RootLogP(), pc: 1, lastInc: n - 1}
	for i := range root.ranks {
		root.ranks[i] = 1
		root.pc *= 1 - m.Pe[i]
	}
	stats := PreprocessStats{RealMuls: int64(n)}
	list := []node{root}
	var e []Path
	cum := 0.0 // Σ Pc over E, the a-FlexCore stop test
	for len(e) < nPE && len(list) > 0 {
		nd := list[0]
		list = list[1:]
		e = append(e, Path{Ranks: nd.ranks, LogP: nd.logP})
		stats.Expanded++
		cum += nd.pc
		if stopThreshold > 0 && cum >= stopThreshold {
			break
		}
		for w := 0; w <= nd.lastInc; w++ {
			if nd.ranks[w] >= m.M {
				continue
			}
			child := node{ranks: append([]int(nil), nd.ranks...), logP: nd.logP + m.logPe[w], pc: nd.pc * m.Pe[w], lastInc: w}
			child.ranks[w]++
			list = append(list, child)
			stats.RealMuls++
		}
		sort.SliceStable(list, func(i, j int) bool { return list[i].logP > list[j].logP })
		if len(list) > nPE {
			list = list[:nPE]
		}
	}
	return e, stats
}

// modelFromPe builds a Model from bare per-level error probabilities —
// the finder reads nothing else of a channel.
func modelFromPe(m int, pe []float64) *Model {
	md := &Model{M: m, Pe: pe, logPe: make([]float64, len(pe)), log1mPe: make([]float64, len(pe))}
	for i, p := range pe {
		md.logPe[i] = math.Log(p)
		md.log1mPe[i] = math.Log1p(-p)
	}
	return md
}

// sameSearch fails unless two searches agree on everything a caller can
// see: path count, rank vectors, order, LogP bits and the stats.
func sameSearch(t *testing.T, what string, got, want []Path, gs, ws PreprocessStats) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d paths, want %d", what, len(got), len(want))
	}
	for i := range want {
		if !equalInts(got[i].Ranks, want[i].Ranks) {
			t.Fatalf("%s: path %d ranks %v, want %v", what, i, got[i].Ranks, want[i].Ranks)
		}
		if math.Float64bits(got[i].LogP) != math.Float64bits(want[i].LogP) {
			t.Fatalf("%s: path %d logP %x, want %x", what, i, math.Float64bits(got[i].LogP), math.Float64bits(want[i].LogP))
		}
	}
	if gs != ws {
		t.Fatalf("%s: stats %+v, want %+v", what, gs, ws)
	}
}

// TestFindPathsMatchesSpec is the finder's property test: on every model
// class where the merge could plausibly part from the sorted list —
// generic channels, exact probability ties by the thousand, budgets past
// the tree size, rank saturation, a-FlexCore stops — the two emit the
// same sequence bit for bit, and count the same work.
func TestFindPathsMatchesSpec(t *testing.T) {
	rng := newRng(1600)
	quant := []float64{0.5, 0.25, 0.125, 0.0625}
	for _, class := range []struct {
		name string
		draw func() (m *Model, nPE int, thr float64)
	}{
		{"random", func() (*Model, int, float64) {
			pe := make([]float64, 2+rng.IntN(9))
			for i := range pe {
				pe[i] = math.Pow(10, -6*rng.Float64()) * peMax
			}
			return modelFromPe([]int{4, 16, 64}[rng.IntN(3)], pe), 1 + rng.IntN(300), 0
		}},
		{"quantised-pe", func() (*Model, int, float64) { // few distinct Pe values, in exact power-of-two ratios
			pe := make([]float64, 2+rng.IntN(7))
			for i := range pe {
				pe[i] = quant[rng.IntN(len(quant))]
			}
			return modelFromPe(16, pe), 1 + rng.IntN(400), 0
		}},
		{"all-clamped", func() (*Model, int, float64) { // every level at peMin: every same-depth candidate ties
			pe := make([]float64, 2+rng.IntN(7))
			for i := range pe {
				pe[i] = peMin
			}
			return modelFromPe(16, pe), 1 + rng.IntN(400), 0
		}},
		{"budget-past-tree", func() (*Model, int, float64) { // N_PE ≥ |Q|^n: the search must run the tree dry
			pe := make([]float64, 1+rng.IntN(3))
			for i := range pe {
				pe[i] = 0.05 + 0.9*rng.Float64()
			}
			return modelFromPe(4, pe), 64 + rng.IntN(200), 0
		}},
		{"rank-saturation", func() (*Model, int, float64) { // one near-certain-error level climbs to rank |Q| at once
			pe := make([]float64, 3+rng.IntN(3))
			for i := range pe {
				pe[i] = 0.01 + 0.2*rng.Float64()
			}
			pe[rng.IntN(len(pe))] = peMax
			return modelFromPe(4, pe), 1 + rng.IntN(250), 0
		}},
		{"threshold", func() (*Model, int, float64) {
			pe := make([]float64, 2+rng.IntN(7))
			for i := range pe {
				pe[i] = math.Pow(10, -3*rng.Float64()) * 0.5
			}
			return modelFromPe(16, pe), 1 + rng.IntN(300), 0.05 + 0.94*rng.Float64()
		}},
	} {
		t.Run(class.name, func(t *testing.T) {
			for trial := 0; trial < 150; trial++ {
				m, nPE, thr := class.draw()
				want, ws := specFindPaths(m, nPE, thr)
				got, gs := FindPaths(m, nPE, thr)
				sameSearch(t, class.name, got, want, gs, ws)
				if thr == 0 {
					continue
				}
				// The stop count must not depend on how Pc is carried: the
				// Σ exp(log Pc) form stops after the same path.
				full, _ := specFindPaths(m, nPE, 0)
				stop, sum := 0, 0.0
				for stop < len(full) {
					sum += math.Exp(full[stop].LogP)
					stop++
					if sum >= thr {
						break
					}
				}
				if stop != len(got) {
					t.Fatalf("trial %d: stopped after %d paths, Σ exp(logP) form after %d", trial, len(got), stop)
				}
			}
		})
	}
}

// fuzzModel decodes fuzz bytes into a search: a small header (order,
// levels, budget, threshold) then one byte per level — low values pick a
// power-of-two Pe (exact ties), high ones spread over (0, peMax].
func fuzzModel(data []byte) (m *Model, nPE int, thr float64) {
	at := func(i int) int {
		if i < len(data) {
			return int(data[i])
		}
		return 0
	}
	pe := make([]float64, 1+at(1)%8)
	for i := range pe {
		if v := at(5 + i); v < 128 {
			pe[i] = math.Ldexp(1, -1-v%40)
		} else {
			pe[i] = float64(v-127) / 128 * peMax
		}
		pe[i] = math.Max(pe[i], peMin)
	}
	if t := at(4); t%4 != 0 {
		thr = float64(t) / 256
	}
	return modelFromPe([]int{2, 4, 16, 64}[at(0)%4], pe), 1 + (at(2)|at(3)<<8)%600, thr
}

// FuzzFindPaths drives the merge against the specification on arbitrary
// models (see fuzzModel for the encoding), and pins the plan the search
// writes to the one kernel32's Compile builds from the returned rank
// plane — slots, tops, owners above them and node count — and so every
// lane prefix of it (samePlans).
func FuzzFindPaths(f *testing.F) {
	f.Add([]byte{2, 3, 128, 0, 0, 200, 180, 160, 140})          // generic 16-QAM, 4 levels
	f.Add([]byte{2, 5, 255, 1, 0, 1, 1, 1, 1, 1, 1})            // all levels equal: ties everywhere
	f.Add([]byte{1, 2, 255, 1, 0, 3, 130, 255})                 // |Q|=4, budget past the 64-path tree
	f.Add([]byte{0, 7, 200, 0, 0, 255, 255, 0, 0, 39, 39, 90})  // |Q|=2 saturates after one increment
	f.Add([]byte{3, 7, 87, 2, 243, 2, 4, 6, 8, 10, 12, 14, 16}) // 64-QAM with a 0.95 threshold
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, nPE, thr := fuzzModel(data)
		want, ws := specFindPaths(m, nPE, thr)
		var f pathFinder
		var dst pathStore
		gs := f.find(m, nPE, thr, &dst)
		sameSearch(t, "fuzz", dst.view(), want, gs, ws)
		samePlans(t, "fuzz", &dst.plan, dst.view())
	})
}

// TestFindPathsHostileModels feeds the finder models no valid channel
// produces — NaN and ±Inf log-probabilities, as a NaN or zero R diagonal
// would give an unclamped model. The emission order is then
// meaningless; the contract is only that the search terminates with at
// least the root and in-range ranks, one plan lane per path.
func TestFindPathsHostileModels(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		name  string
		logPe []float64
	}{
		{"all-nan", []float64{nan, nan, nan}},
		{"one-nan", []float64{-1, nan, -2}},
		{"plus-inf", []float64{inf, -1, inf}},
		{"minus-inf", []float64{-inf, -inf, -inf}},
		{"mixed", []float64{nan, inf, -inf, 0}},
		{"positive", []float64{3, 2, 1}},
	} {
		for _, thr := range []float64{0, 0.9} {
			m := &Model{M: 4, Pe: make([]float64, len(tc.logPe)), logPe: tc.logPe, log1mPe: make([]float64, len(tc.logPe))}
			for i, l := range tc.logPe {
				m.Pe[i] = math.Exp(l)
				m.log1mPe[i] = math.Log1p(-m.Pe[i])
			}
			var f pathFinder
			var dst pathStore
			f.find(m, 100, thr, &dst)
			paths := dst.view()
			if len(paths) < 1 || len(paths) > 100 {
				t.Fatalf("%s thr=%g: %d paths", tc.name, thr, len(paths))
			}
			for _, p := range paths {
				for _, r := range p.Ranks {
					if r < 1 || r > m.M {
						t.Fatalf("%s: rank vector %v out of range", tc.name, p.Ranks)
					}
				}
			}
			if dst.plan.P != len(paths) {
				t.Fatalf("%s: plan has %d lanes for %d paths", tc.name, dst.plan.P, len(paths))
			}
		}
	}
	// The same through the model builder: a NaN diagonal entry, and a
	// zero one at zero noise, both evaluate Eq. 4 to NaN.
	cons := constellation.MustNew(16)
	for _, diag := range [][]float64{{1, nan, 1}, {nan, nan}} {
		m := NewModel(diagMatrix(diag), 0.1, cons)
		if paths, _ := FindPaths(m, 50, 0); len(paths) < 1 {
			t.Fatalf("diag %v: no paths", diag)
		}
	}
	m := NewModel(diagMatrix([]float64{0, 1}), 0, cons)
	if paths, _ := FindPaths(m, 50, 0.5); len(paths) < 1 {
		t.Fatal("zero diagonal at zero noise: no paths")
	}
}
