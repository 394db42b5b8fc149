package core

import (
	"math"
	"sort"
	"testing"

	"flexcore/internal/channel"
	"flexcore/internal/constellation"
)

// enumerateAll exhaustively lists every position vector with its logP.
func enumerateAll(m *Model) []Path {
	n := m.Levels()
	var out []Path
	ranks := make([]int, n)
	var rec func(i int)
	rec = func(i int) {
		if i == n {
			out = append(out, Path{Ranks: append([]int(nil), ranks...), LogP: m.PathLogP(ranks)})
			return
		}
		for k := 1; k <= m.M; k++ {
			ranks[i] = k
			rec(i + 1)
		}
		ranks[i] = 1
	}
	rec(0)
	sort.Slice(out, func(i, j int) bool { return out[i].LogP > out[j].LogP })
	return out
}

func key(ranks []int) string {
	b := make([]byte, len(ranks))
	for i, r := range ranks {
		b[i] = byte(r)
	}
	return string(b)
}

func testModel(t *testing.T, m int, diag []float64, snrdB float64) *Model {
	t.Helper()
	cons := constellation.MustNew(m)
	return NewModel(diagMatrix(diag), channel.Sigma2FromSNRdB(snrdB, 1), cons)
}

func TestFindPathsRootFirstAndDescending(t *testing.T) {
	m := testModel(t, 16, []float64{0.9, 1.2, 0.7, 1.5}, 12)
	paths, _ := FindPaths(m, 64, 0)
	if len(paths) != 64 {
		t.Fatalf("got %d paths", len(paths))
	}
	for i, r := range paths[0].Ranks {
		if r != 1 {
			t.Fatalf("first path rank[%d] = %d, want all ones", i, r)
		}
	}
	for i := 1; i < len(paths); i++ {
		if paths[i].LogP > paths[i-1].LogP+1e-12 {
			t.Fatalf("paths not in descending probability at %d", i)
		}
	}
}

func TestFindPathsUnique(t *testing.T) {
	m := testModel(t, 64, []float64{0.5, 1.0, 1.5, 0.8, 1.2, 0.9}, 18)
	paths, _ := FindPaths(m, 512, 0)
	seen := map[string]bool{}
	for _, p := range paths {
		k := key(p.Ranks)
		if seen[k] {
			t.Fatalf("duplicate position vector %v", p.Ranks)
		}
		seen[k] = true
		for _, r := range p.Ranks {
			if r < 1 || r > 64 {
				t.Fatalf("rank out of range in %v", p.Ranks)
			}
		}
	}
}

func TestFindPathsMatchesExhaustiveTopSet(t *testing.T) {
	// On systems small enough to enumerate, the best-first search with the
	// duplicate-suppression rule must return exactly the top-N_PE set.
	for _, tc := range []struct {
		m    int
		diag []float64
		snr  float64
		npe  int
	}{
		{4, []float64{0.8, 1.1}, 6, 7},
		{4, []float64{0.5, 1.0, 1.6}, 8, 20},
		{16, []float64{0.9, 1.4}, 10, 40},
	} {
		model := testModel(t, tc.m, tc.diag, tc.snr)
		got, _ := FindPaths(model, tc.npe, 0)
		all := enumerateAll(model)
		want := all[:tc.npe]
		gotSet := map[string]bool{}
		for _, p := range got {
			gotSet[key(p.Ranks)] = true
		}
		for i, p := range want {
			// Probability ties make the boundary of the top set ambiguous;
			// accept any vector with the same logP as the boundary.
			if !gotSet[key(p.Ranks)] && math.Abs(p.LogP-want[len(want)-1].LogP) > 1e-12 {
				t.Fatalf("m=%d npe=%d: exhaustive #%d %v (logP %v) missing", tc.m, tc.npe, i, p.Ranks, p.LogP)
			}
		}
	}
}

func TestFindPathsCapsAtTotalPaths(t *testing.T) {
	m := testModel(t, 4, []float64{1, 1}, 5)
	paths, _ := FindPaths(m, 1000, 0) // only 16 exist
	if len(paths) != 16 {
		t.Fatalf("got %d paths, want all 16", len(paths))
	}
	// Cumulative probability of the complete set is ≈ 1 (up to the rank
	// truncation at |Q|).
	var sum float64
	for _, p := range paths {
		sum += p.Prob()
	}
	if sum < 0.95 || sum > 1+1e-9 {
		t.Fatalf("complete-set probability %v", sum)
	}
}

func TestFindPathsStoppingThreshold(t *testing.T) {
	// At high SNR the all-ones path already carries almost all the
	// probability, so a 0.95 threshold must stop after very few paths —
	// the a-FlexCore behaviour of Fig. 10.
	m := testModel(t, 64, []float64{1.4, 1.1, 1.2, 1.3}, 30)
	paths, _ := FindPaths(m, 64, 0.95)
	if len(paths) > 3 {
		t.Fatalf("high SNR: %d paths active, expected ≤ 3", len(paths))
	}
	// The search stops on its running Σ Pc; the returned set's Σ exp(log
	// Pc) is the same sum up to rounding.
	var cum float64
	for _, p := range paths {
		cum += p.Prob()
	}
	if cum < 0.95-1e-12 {
		t.Fatalf("stop before reaching threshold: Σ Pc = %v", cum)
	}
	// At low SNR the same threshold needs many more paths.
	m = testModel(t, 64, []float64{1.4, 1.1, 1.2, 1.3}, 8)
	lowPaths, _ := FindPaths(m, 64, 0.95)
	if len(lowPaths) <= len(paths) {
		t.Fatalf("low SNR should activate more paths: %d vs %d", len(lowPaths), len(paths))
	}
}

func TestFindPathsStats(t *testing.T) {
	m := testModel(t, 16, []float64{1, 1, 1, 1, 1, 1, 1, 1}, 12)
	_, stats := FindPaths(m, 32, 0)
	if stats.Expanded == 0 || stats.RealMuls == 0 {
		t.Fatal("stats not collected")
	}
	// Paper bound: at most N_PE·Nt multiplications (§3.1.1) plus the root.
	if stats.RealMuls > int64(32*8)+8 {
		t.Fatalf("pre-processing multiplications %d exceed the paper bound", stats.RealMuls)
	}
}

func TestFindPathsNPEOne(t *testing.T) {
	m := testModel(t, 16, []float64{1, 1}, 10)
	paths, _ := FindPaths(m, 1, 0)
	if len(paths) != 1 {
		t.Fatalf("got %d paths", len(paths))
	}
	for _, r := range paths[0].Ranks {
		if r != 1 {
			t.Fatal("single path must be the SIC path")
		}
	}
}

func TestPreprocessStatsAdd(t *testing.T) {
	s := PreprocessStats{RealMuls: 10, Expanded: 3, ActivePaths: 6, CacheHits: 2, CacheMisses: 1}
	s.Add(PreprocessStats{RealMuls: 5, Expanded: 4, ActivePaths: 9, CacheHits: 1, CacheMisses: 7})
	want := PreprocessStats{RealMuls: 15, Expanded: 7, ActivePaths: 15, CacheHits: 3, CacheMisses: 8}
	if s != want {
		t.Fatalf("Add produced %+v, want %+v (every field summed)", s, want)
	}
}
