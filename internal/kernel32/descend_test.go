package kernel32

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"flexcore/internal/cmatrix"
	"flexcore/internal/constellation"
)

// refLanes is the reference the trie descent is pinned to: every lane
// walks the whole tree on its own, one scalar level at a time, slicing
// through Slicer32.Kth / KthClamped. It cancels the decided symbols in
// the order Descend's push form does (top level first), so on a target
// without fused multiply-add its distances are bit-identical to the
// kernel's, not merely close — which is what lets the properties below
// and FuzzDescend demand exact equality.
func refLanes(pr *Prep, sl *Slicer32, P int, ranks []int16, yb []c32, strict bool) (peds []float32, idx [][]int32) {
	n := pr.N
	peds = make([]float32, P)
	idx = make([][]int32, P)
	for p := 0; p < P; p++ {
		idx[p] = make([]int32, n)
		symre := make([]float32, n)
		symim := make([]float32, n)
		var ped float32
		for i := n - 1; i >= 0; i-- {
			br, bi := yb[i].re, yb[i].im
			for j := n - 1; j > i; j-- {
				rr, ri := pr.Rre[i*n+j], pr.Rim[i*n+j]
				br -= rr*symre[j] - ri*symim[j]
				bi -= rr*symim[j] + ri*symre[j]
			}
			zx, zy := br*pr.W[i], bi*pr.W[i]
			k := int32(ranks[i*P+p])
			var q int32
			if strict {
				var ok bool
				if q, ok = sl.Kth(zx, zy, k); !ok {
					ped = inf32
					idx[p][i], symre[i], symim[i] = 0, 0, 0
					continue
				}
			} else {
				q = sl.KthClamped(zx, zy, k)
			}
			qr, qi := sl.Point(q)
			dr, di := br-pr.Rii[i]*qr, bi-pr.Rii[i]*qi
			ped += dr*dr + di*di
			idx[p][i], symre[i], symim[i] = q, qr, qi
		}
		peds[p] = ped
	}
	return peds, idx
}

// refArgmin is the first-strict-improvement scan over lanes [lo, hi).
func refArgmin(peds []float32, lo, hi int) (int, float32) {
	lane, best := -1, inf32
	for p := lo; p < hi; p++ {
		if peds[p] < best {
			best, lane = peds[p], p
		}
	}
	return lane, best
}

// randomChannel draws an n×n upper-triangular R with a positive
// diagonal and installs it in pr.
func randomChannel(rng *rand.Rand, pr *Prep, n int, cons *constellation.Constellation) {
	r := cmatrix.New(n, n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			r.Set(i, j, complex(rng.NormFloat64()*0.5, rng.NormFloat64()*0.5))
		}
		r.Set(i, i, complex(0.3+rng.Float64(), 0))
	}
	pr.SetChannel(r, 1/cons.Scale())
}

// bits32 is the exact-equality view of a distance.
func bits32(v float32) uint32 { return math.Float32bits(v) }

// checkAgainstReference descends the staged plane and pins it to the
// per-lane reference. Each given range must return the reference's
// argmin — lane and distance bits — with the winner's decisions, slicing
// no more than the trie's nodes; every leaf of the range is either the
// reference's bit for bit or skipped by the bound and so +Inf, and then
// strictly worse than the returned minimum; a range that starts at lane
// 0 also passes checkWork. A skipped lane has no distance, so per-lane
// exactness is pinned on single-lane ranges, where nothing can beat the
// lane: Descend(p, p+1) must return (p, ref[p]) and lane p's reference
// decisions, or −1 when the reference deactivated.
func checkAgainstReference(t *testing.T, pr *Prep, sl *Slicer32, s *Scratch, P int, ranks []int16, strict bool, ranges [][2]int) {
	t.Helper()
	n := pr.N
	want, wantIdx := refLanes(pr, sl, P, ranks, s.yb, strict)
	got := make([]int, n)
	checkIdx := func(p int) {
		t.Helper()
		s.GatherIdx(p, got)
		for i := range got {
			if int32(got[i]) != wantIdx[p][i] {
				t.Fatalf("n=%d P=%d strict=%v lane %d level %d: index %d, reference %d", n, P, strict, p, i, got[i], wantIdx[p][i])
			}
		}
	}
	for _, rg := range ranges {
		lo, hi := rg[0], rg[1]
		poisonPed(pr, s)
		lane, ped := Descend(pr, sl, s, lo, hi, strict)
		wl, wp := refArgmin(want, lo, hi)
		if lane != wl || bits32(ped) != bits32(wp) {
			t.Fatalf("n=%d P=%d strict=%v range %v: got lane %d ped %v, reference lane %d ped %v", n, P, strict, rg, lane, ped, wl, wp)
		}
		if s.Visited > pr.Plan.Nodes() {
			t.Fatalf("n=%d P=%d strict=%v range %v: %d nodes sliced, the trie has %d", n, P, strict, rg, s.Visited, pr.Plan.Nodes())
		}
		if lo >= hi {
			continue
		}
		leaves := s.Ped[pr.Plan.start[n]:]
		for p := lo; p < hi; p++ {
			skipped := math.IsInf(float64(leaves[p]), 1) && want[p] > wp
			if bits32(leaves[p]) != bits32(want[p]) && !skipped {
				t.Fatalf("n=%d P=%d strict=%v range %v lane %d: distance %v, reference %v (minimum %v)", n, P, strict, rg, p, leaves[p], want[p], wp)
			}
		}
		if lo == 0 {
			checkWork(t, pr.Plan, s, want[0])
		}
		if lane >= 0 {
			checkIdx(lane)
		}
	}
	for p := 0; p < P; p++ {
		lane, ped := Descend(pr, sl, s, p, p+1, strict)
		if want[p] < inf32 {
			if lane != p || bits32(ped) != bits32(want[p]) {
				t.Fatalf("n=%d P=%d strict=%v lane %d alone: got lane %d ped %v, reference %v", n, P, strict, p, lane, ped, want[p])
			}
			checkIdx(p)
		} else if lane != -1 || !math.IsInf(float64(ped), 1) {
			t.Fatalf("n=%d P=%d strict=%v lane %d alone: got lane %d ped %v, reference deactivated", n, P, strict, p, lane, ped)
		}
	}
}

// poisonPed sizes the scratch for pr's plan and sets every node's
// distance to NaN, so the nodes the next descent slices are the ones
// that read otherwise (for finite inputs).
func poisonPed(pr *Prep, s *Scratch) {
	s.fit(pr.plan())
	for g := range s.Ped {
		s.Ped[g] = float32(math.NaN())
	}
}

// checkWork pins the depth-first walk's work bound on a descent of
// lanes [0, hi) of finite inputs, Ped poisoned beforehand: every node it
// sliced hangs under the root or under a parent it sliced, found live
// and not beyond b0, lane 0's distance — a node that a walk bounded by
// lane 0 alone slices too — and there are no more of them than Visited.
// (A deactivated leaf reads +Inf either way and is not told apart.)
// Chains lies between the chains those nodes hang in and the chains
// under the root and under every sliced inner node within b0.
func checkWork(t *testing.T, pl *Plan, s *Scratch, b0 float32) {
	t.Helper()
	sliced, chains, steps := 0, 1, 1 // the root's chain
	for d := 1; d <= pl.N; d++ {
		under := map[int32]bool{}
		for g := pl.start[d]; g < pl.start[d+1]; g++ {
			v := s.Ped[g]
			if math.IsNaN(float64(v)) || d == pl.N && math.IsInf(float64(v), 1) {
				continue
			}
			sliced++
			if d < pl.N && v <= b0 {
				steps++
			}
			if d == 1 {
				continue
			}
			under[pl.nodes[g].parent] = true
			if pp := s.Ped[pl.start[d-1]+pl.nodes[g].parent]; !(pp < inf32) || pp > b0 {
				t.Fatalf("depth %d node %d sliced under a parent at %v; lane 0's distance is %v", d, g-pl.start[d], pp, b0)
			}
		}
		chains += len(under)
	}
	if sliced > s.Visited {
		t.Fatalf("%d nodes read as sliced, Visited says %d", sliced, s.Visited)
	}
	if s.Chains < chains || s.Chains > steps {
		t.Fatalf("Chains says %d; the sliced nodes hang in %d chains and at most %d were stepped into", s.Chains, chains, steps)
	}
}

// TestDescendMatchesReference: arbitrary rank planes — not down-sets,
// with duplicate lanes, a lone lane, a single level — descend to the
// reference's decisions and distances, clamped and strict, over the
// whole lane range and over sub-ranges.
func TestDescendMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1401))
	for _, m := range []int{4, 16, 64} {
		cons := constellation.MustNew(m)
		sl := NewSlicer32(cons)
		for _, shape := range [][2]int{{1, 1}, {1, 9}, {2, 1}, {3, 7}, {4, 64}, {8, 33}, {12, 128}} {
			n, P := shape[0], shape[1]
			for trial := 0; trial < 12; trial++ {
				var pr Prep
				var s Scratch
				randomChannel(rng, &pr, n, cons)
				// Small rank ranges force shared suffixes, large ones
				// force out-of-constellation candidates.
				maxRank := 1 + rng.Intn(m)
				ranks := pr.EnsureRanks(P)
				for i := range ranks {
					ranks[i] = int16(1 + rng.Intn(maxRank))
				}
				for p := 1; p < P; p += 3 { // duplicate lanes
					src := rng.Intn(p)
					for i := 0; i < n; i++ {
						ranks[i*P+p] = ranks[i*P+src]
					}
				}
				s.Ensure(n, P)
				for i := range s.yb {
					s.yb[i] = c32{float32(rng.NormFloat64()), float32(rng.NormFloat64())}
				}
				ranges := [][2]int{{0, P}, {0, (P + 1) / 2}, {P / 2, P}, {P / 3, P/3 + 1}, {P, P}}
				for _, strict := range []bool{false, true} {
					checkAgainstReference(t, &pr, sl, &s, P, ranks, strict, ranges)
				}
			}
		}
	}
}

// TestDescendTieBreakLowestLane: tied lanes must resolve to the lowest
// lane of the range it was given — identical lanes, which the walk
// reaches in lane order, and two distinct paths the walk reaches
// higher lane first.
func TestDescendTieBreakLowestLane(t *testing.T) {
	rng := rand.New(rand.NewSource(1402))
	cons := constellation.MustNew(16)
	sl := NewSlicer32(cons)
	const n, P = 4, 6
	var pr Prep
	var s Scratch
	randomChannel(rng, &pr, n, cons)
	ranks := pr.EnsureRanks(P)
	for i := range ranks {
		ranks[i] = 1 // six copies of the SIC path
	}
	s.Ensure(n, P)
	for i := range s.yb {
		s.yb[i] = c32{float32(rng.NormFloat64()), float32(rng.NormFloat64())}
	}
	for lo := 0; lo < P; lo++ {
		if lane, _ := Descend(&pr, sl, &s, lo, P, false); lane != lo {
			t.Errorf("range [%d,%d): best lane %d, want the lowest tied lane %d", lo, P, lane, lo)
		}
	}

	// Two uncoupled levels with the same observation: a level's distance
	// depends on its rank alone, so ranks (2, 1) and (1, 2) sum the same
	// two terms and tie exactly. Lane 1 = (2, 1) opens the second
	// top-level node and lane 2 = (1, 2) hangs under lane 0's first one,
	// so the walk completes lane 2 before lane 1.
	one := cmatrix.New(2, 2)
	one.Set(0, 0, 1)
	one.Set(1, 1, 1)
	pr.SetChannel(one, 1/cons.Scale())
	s.Ensure(2, 4)
	s.yb[0], s.yb[1] = c32{0.37, -0.11}, c32{0.37, -0.11}
	pl := pr.EnsureRanks(4) // level-major: level 0's four lanes, then level 1's
	copy(pl, []int16{1, 1, 2, 2, 1, 2, 1, 2})
	want, _ := refLanes(&pr, sl, 4, pl, s.yb, false)
	if bits32(want[1]) != bits32(want[2]) || !(want[1] < want[3]) {
		t.Fatalf("lanes 1 and 2 no longer tie below lane 3: %v", want)
	}
	if lane, ped := Descend(&pr, sl, &s, 1, 4, false); lane != 1 || bits32(ped) != bits32(want[1]) {
		t.Errorf("range [1,4): lane %d ped %v, want the lower tied lane 1 at %v although the walk meets lane 2 first", lane, ped, want[1])
	}

	// A node whose partial distance equals the bound can still hold a
	// lower tied lane, so only a strictly worse node is pruned. Both
	// levels observe a constellation point exactly, so rank 1 at the
	// bottom adds 0; two top ranks a < b at the same distance D open two
	// top-level nodes of partial D. Lane 0 = (a, 2) and lane 2 = (a, 1)
	// sit under the first, lane 1 = (b, 1) under the second: the walk
	// sets the bound to lane 2's D, then meets a node at exactly D.
	xr, xi := sl.Point(5)
	s.yb[0], s.yb[1] = c32{xr, xi}, c32{xr, xi}
	top := make([]float32, 17)
	for r := 2; r <= 16; r++ {
		one := pr.EnsureRanks(1)
		one[0], one[1] = 1, int16(r)
		d, _ := refLanes(&pr, sl, 1, one, s.yb, false)
		top[r] = d[0]
	}
	a, b := 0, 0
	for r := 2; r <= 16 && a == 0; r++ {
		for q := r + 1; q <= 16; q++ {
			if bits32(top[r]) == bits32(top[q]) {
				a, b = r, q
				break
			}
		}
	}
	if a == 0 {
		t.Fatalf("no two top ranks tie on a constellation point: %v", top[2:])
	}
	pl = pr.EnsureRanks(3)
	copy(pl, []int16{2, 1, 1, int16(a), int16(b), int16(a)})
	want, _ = refLanes(&pr, sl, 3, pl, s.yb, false)
	if bits32(want[1]) != bits32(want[2]) || bits32(want[1]) != bits32(top[a]) || !(want[0] > want[1]) {
		t.Fatalf("ranks %d and %d: lanes no longer tie as staged: %v", a, b, want)
	}
	if lane, _ := Descend(&pr, sl, &s, 0, 3, false); lane != 1 {
		t.Errorf("a node at exactly the bound was pruned: lane %d, want the lower tied lane 1 under it", lane)
	}
}

// TestDescendBoundLane pins the cases where the first lane of a range
// is special to the running bound: tied with a later duplicate, beaten by
// a later tie, deactivated, or absent because the range is empty.
func TestDescendBoundLane(t *testing.T) {
	rng := rand.New(rand.NewSource(1408))
	cons := constellation.MustNew(16)
	sl := NewSlicer32(cons)
	const n, P = 4, 9
	var pr Prep
	var s Scratch
	randomChannel(rng, &pr, n, cons)
	s.Ensure(n, P)
	// ȳ = R·x + a little noise for inner constellation points x, so the
	// SIC path is the clear winner and its neighbours stay inside.
	for i := range s.yb {
		var re, im float32
		for j := i; j < n; j++ {
			xr, xi := sl.Point(int32(5 + j%2))
			re += pr.Rre[i*n+j]*xr - pr.Rim[i*n+j]*xi
			im += pr.Rre[i*n+j]*xi + pr.Rim[i*n+j]*xr
		}
		s.yb[i] = c32{re + float32(rng.NormFloat64())/50, im + float32(rng.NormFloat64())/50}
	}
	// Lanes 2 and 5 are the SIC path, lanes 3 and 6 its neighbour one
	// step up at the bottom level; lane 0 takes the 16th-closest symbol
	// at the top level, which no received point near the constellation
	// has inside it; the rest are arbitrary.
	ranks := pr.EnsureRanks(P)
	for i := range ranks {
		ranks[i] = int16(2 + rng.Intn(4))
	}
	for i := 0; i < n; i++ {
		ranks[i*P+0] = 1
		for _, p := range []int{2, 3, 5, 6} {
			ranks[i*P+p] = 1
		}
	}
	ranks[(n-1)*P+0] = 16
	ranks[3], ranks[6] = 2, 2

	for _, strict := range []bool{false, true} {
		want, _ := refLanes(&pr, sl, P, ranks, s.yb, strict)
		if bits32(want[2]) != bits32(want[5]) || bits32(want[3]) != bits32(want[6]) || !(want[3] > want[2]) {
			t.Fatalf("strict=%v: the staged lanes no longer tie as intended: %v", strict, want)
		}
		checkAgainstReference(t, &pr, sl, &s, P, ranks, strict, [][2]int{{0, P}, {2, P}, {3, P}, {3, 6}, {1, 2}})
		// The first lane and the lane three up tie: the first lane wins.
		if lane, _ := Descend(&pr, sl, &s, 2, P, strict); lane != 2 {
			t.Errorf("strict=%v range [2,%d): lane %d, want the first lane 2 over its duplicate 5", strict, P, lane)
		}
		// The first lane is beaten by a tie further up: the lower of the
		// two wins.
		lane, ped := Descend(&pr, sl, &s, 3, P, strict)
		if lane != 5 || bits32(ped) != bits32(want[5]) {
			t.Errorf("strict=%v range [3,%d): lane %d ped %v, want lane 5 ped %v", strict, P, lane, ped, want[5])
		}
		for _, lo := range []int{0, P / 2, P} {
			if lane, ped := Descend(&pr, sl, &s, lo, lo, strict); lane != -1 || !math.IsInf(float64(ped), 1) || s.Visited != 0 || s.Chains != 0 {
				t.Errorf("strict=%v empty range [%d,%d): lane %d ped %v visited %d chains %d, want -1 +Inf 0 0", strict, lo, lo, lane, ped, s.Visited, s.Chains)
			}
		}
		if !strict {
			continue
		}
		// Strict, first lane deactivated: the bound waits for the first
		// leaf that completes and then prunes as usual.
		if !math.IsInf(float64(want[0]), 1) {
			t.Fatalf("lane 0 no longer deactivates under strict: distance %v", want[0])
		}
		lane, ped = Descend(&pr, sl, &s, 0, P, true)
		if lane != 2 || bits32(ped) != bits32(want[2]) {
			t.Errorf("deactivated first lane: lane %d ped %v, want 2 %v", lane, ped, want[2])
		}
		if got := s.Ped[pr.Plan.start[n]]; !math.IsInf(float64(got), 1) {
			t.Errorf("deactivated first lane reads %v, want +Inf", got)
		}
		if s.Visited >= pr.Plan.Nodes() {
			t.Errorf("deactivated first lane: %d of %d nodes sliced, want the bound to prune", s.Visited, pr.Plan.Nodes())
		}
	}
}

// TestDescendAllLanesDead: a received point far outside the
// constellation deactivates every top-level node under strict
// deactivation; every lane inherits +Inf and the descent reports −1.
func TestDescendAllLanesDead(t *testing.T) {
	rng := rand.New(rand.NewSource(1403))
	cons := constellation.MustNew(16)
	sl := NewSlicer32(cons)
	const n, P = 3, 10
	var pr Prep
	var s Scratch
	randomChannel(rng, &pr, n, cons)
	ranks := pr.EnsureRanks(P)
	for i := range ranks {
		ranks[i] = int16(2 + rng.Intn(8))
	}
	s.Ensure(n, P)
	for i := range s.yb {
		s.yb[i] = c32{1e4, -1e4}
	}
	lane, ped := Descend(&pr, sl, &s, 0, P, true)
	if lane != -1 || !math.IsInf(float64(ped), 1) {
		t.Fatalf("all lanes dead: got lane %d ped %v, want -1 +Inf", lane, ped)
	}
	if lane, _ := Descend(&pr, sl, &s, 0, P, false); lane < 0 {
		t.Fatalf("clamped descent of the same input deactivated")
	}
}

// TestDescendNonFiniteInputs: received entries that are NaN or ±Inf
// and off-diagonal R entries that float32() turns into ±Inf (a
// wire-valid 1e150) go through the walk without a panic and without an
// index outside the constellation; a lane whose distance is NaN or +Inf
// never wins, whichever lane the bound came from, and when no lane is
// finite the descent reports −1 so the caller falls back. A diagonal
// that underflows to zero in float32 is degenerate like a zero one.
func TestDescendNonFiniteInputs(t *testing.T) {
	rng := rand.New(rand.NewSource(1409))
	cons := constellation.MustNew(16)
	sl := NewSlicer32(cons)
	const n, P = 4, 24
	nan, inf := float32(math.NaN()), float32(math.Inf(1))
	r := cmatrix.New(n, n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			r.Set(i, j, complex(rng.NormFloat64()*0.5, rng.NormFloat64()*0.5))
		}
		r.Set(i, i, complex(0.3+rng.Float64(), 0))
	}
	hugeR := cmatrix.New(n, n)
	copy(hugeR.Data, r.Data)
	hugeR.Set(0, 2, complex(1e150, -1e150))
	hugeR.Set(1, 3, complex(-1e150, 0))

	for _, tc := range []struct {
		name    string
		r       *cmatrix.Matrix
		poison  map[int]c32 // ȳ entries overwritten, by level
		allDead bool        // no lane can have a finite distance
	}{
		{"NaN at the top level", r, map[int]c32{n - 1: {nan, 0}}, true},
		{"NaN at the bottom level", r, map[int]c32{0: {0.5, nan}}, true},
		{"+Inf and -Inf in the middle", r, map[int]c32{1: {inf, -inf}, 2: {-inf, 1}}, true},
		{"all NaN", r, map[int]c32{0: {nan, nan}, 1: {nan, nan}, 2: {nan, nan}, 3: {nan, nan}}, true},
		{"Inf off-diagonals, finite input", hugeR, nil, false},
		{"Inf off-diagonals, NaN at the bottom", hugeR, map[int]c32{0: {nan, nan}}, true},
	} {
		var pr Prep
		var s Scratch
		pr.SetChannel(tc.r, 1/cons.Scale())
		if pr.Degenerate {
			t.Fatalf("%s: positive diagonal reported degenerate", tc.name)
		}
		ranks := pr.EnsureRanks(P)
		for i := range ranks {
			ranks[i] = int16(1 + rng.Intn(6))
		}
		s.Ensure(n, P)
		for i := range s.yb {
			s.yb[i] = c32{float32(rng.NormFloat64()), float32(rng.NormFloat64())}
		}
		for l, v := range tc.poison {
			s.yb[l] = v
		}
		for _, strict := range []bool{false, true} {
			want, _ := refLanes(&pr, sl, P, ranks, s.yb, strict)
			for _, rg := range [][2]int{{0, P}, {1, P}, {P / 2, P}, {P - 1, P}} {
				lane, ped := Descend(&pr, sl, &s, rg[0], rg[1], strict)
				wl, wp := refArgmin(want, rg[0], rg[1])
				if lane != wl || bits32(ped) != bits32(wp) {
					t.Errorf("%s strict=%v range %v: lane %d ped %v, reference lane %d ped %v", tc.name, strict, rg, lane, ped, wl, wp)
				}
				if tc.allDead && lane != -1 {
					t.Errorf("%s strict=%v range %v: lane %d won with distance %v", tc.name, strict, rg, lane, ped)
				}
				if lane >= 0 && !(ped < inf) {
					t.Errorf("%s strict=%v range %v: winning distance %v is not finite", tc.name, strict, rg, ped)
				}
				for g, k := range s.Idx {
					if k < 0 || int(k) >= cons.Size() {
						t.Fatalf("%s strict=%v range %v: node %d decided index %d", tc.name, strict, rg, g, k)
					}
				}
			}
		}
	}

	var pr Prep
	tiny := cmatrix.New(n, n)
	copy(tiny.Data, r.Data)
	tiny.Set(2, 2, complex(1e-60, 0))
	if pr.SetChannel(tiny, 1/cons.Scale()); !pr.Degenerate {
		t.Errorf("diagonal 1e-60 is %v in float32 yet the channel is not degenerate", pr.Rii[2])
	}
}

// TestNodeStepMatchesSlicer pins Descend's branch-free node step to the
// readable Slicer32.Kth / KthClamped on a dense grid: a one-level,
// one-lane tree over a unit channel makes the effective point exactly
// the received one. The grid covers both zeros, the exact half-integers
// where round32's half-away-from-zero rule decides, the square
// diagonals and points far outside; non-finite inputs must neither
// panic nor produce an index outside the constellation.
func TestNodeStepMatchesSlicer(t *testing.T) {
	negZero := float32(math.Copysign(0, -1))
	for _, m := range []int{4, 16, 64} {
		cons := constellation.MustNew(m)
		sl := NewSlicer32(cons)
		var pr Prep
		var s Scratch
		one := cmatrix.New(1, 1)
		one.Set(0, 0, 1)
		pr.SetChannel(one, 1)
		s.Ensure(1, 1)

		side := float32(sl.Side())
		step := float32(0.125)
		if m == 64 {
			step = 0.25
		}
		axis := []float32{0, negZero, 1e-30, -1e-30, 1e9, -1e9}
		for v := -side - 3; v <= side+3; v += step {
			axis = append(axis, v)
		}
		hostile := []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)), 3e38, -3e38}

		for k := int32(1); k <= int32(m); k++ {
			pr.EnsureRanks(1)[0] = int16(k)
			for _, zx := range axis {
				for _, zy := range axis {
					s.yb[0] = c32{zx, zy}
					want, ok := sl.Kth(zx, zy, k)
					lane, _ := Descend(&pr, sl, &s, 0, 1, true)
					if ok != (lane == 0) || (ok && s.Idx[1] != want) {
						t.Fatalf("%d-QAM strict z=(%v,%v) k=%d: lane %d idx %d, Kth gives %d ok=%v", m, zx, zy, k, lane, s.Idx[1], want, ok)
					}
					Descend(&pr, sl, &s, 0, 1, false)
					if got, want := s.Idx[1], sl.KthClamped(zx, zy, k); got != want {
						t.Fatalf("%d-QAM clamped z=(%v,%v) k=%d: idx %d, KthClamped gives %d", m, zx, zy, k, got, want)
					}
				}
			}
			for _, h := range hostile {
				for _, z := range [][2]float32{{h, 0.5}, {-1.5, h}, {h, h}} {
					s.yb[0] = c32{z[0], z[1]}
					for _, strict := range []bool{false, true} {
						Descend(&pr, sl, &s, 0, 1, strict)
						if idx := s.Idx[1]; idx < 0 || idx >= int32(m) {
							t.Fatalf("%d-QAM z=%v k=%d strict=%v: index %d outside the constellation", m, z, k, strict, idx)
						}
					}
				}
			}
		}
	}
}

// TestCompileCountsDistinctSuffixes: the compiled trie has exactly one
// node per distinct rank suffix above the leaves plus one leaf per
// lane, and a copy of it descends like the original.
func TestCompileCountsDistinctSuffixes(t *testing.T) {
	rng := rand.New(rand.NewSource(1404))
	cons := constellation.MustNew(16)
	sl := NewSlicer32(cons)
	for _, shape := range [][2]int{{1, 5}, {4, 1}, {5, 40}, {7, 200}} {
		n, P := shape[0], shape[1]
		var c Compiler
		ranks := c.Ranks(n, P)
		for i := range ranks {
			ranks[i] = int16(1 + rng.Intn(3))
		}
		var pl Plan
		c.Compile(&pl)
		want := P
		for j := 1; j < n; j++ {
			seen := map[string]bool{}
			for p := 0; p < P; p++ {
				key := make([]byte, 0, n)
				for i := j; i < n; i++ {
					key = append(key, byte(ranks[i*P+p]))
				}
				seen[string(key)] = true
			}
			want += len(seen)
		}
		if pl.Nodes() != want {
			t.Errorf("n=%d P=%d: %d nodes, want %d distinct suffixes", n, P, pl.Nodes(), want)
		}

		var cp Plan
		cp.CopyPrefix(&pl, P)
		var pr Prep
		var s Scratch
		randomChannel(rng, &pr, n, cons)
		pr.Plan = &cp
		s.Ensure(n, P)
		for i := range s.yb {
			s.yb[i] = c32{float32(rng.NormFloat64()), float32(rng.NormFloat64())}
		}
		checkAgainstReference(t, &pr, sl, &s, P, ranks, false, [][2]int{{0, P}})
	}
}

// firstLanes stages the first k lanes of an n×P rank plane in c.
func firstLanes(c *Compiler, ranks []int16, n, P, k int) []int16 {
	sub := c.Ranks(n, k)
	for i := 0; i < n; i++ {
		copy(sub[i*k:(i+1)*k], ranks[i*P:i*P+k])
	}
	return sub
}

// checkPrefixes pins CopyPrefix for every k on plan pl of the n×P rank
// plane: the copy is, node for node, the plan Compile builds from the
// first k lanes alone, and descending it gives every one of those lanes
// the distance and decisions the reference does.
func checkPrefixes(t *testing.T, rng *rand.Rand, sl *Slicer32, cons *constellation.Constellation, pl *Plan, ranks []int16, n, P int) {
	t.Helper()
	var c Compiler
	var want, got Plan
	var pr Prep
	var s Scratch
	randomChannel(rng, &pr, n, cons)
	s.Ensure(n, P)
	for i := range s.yb {
		s.yb[i] = c32{float32(rng.NormFloat64()), float32(rng.NormFloat64())}
	}
	for k := P + 1; k >= 1; k-- { // descending: got's arenas shrink in place
		kk := min(k, P)
		sub := append([]int16(nil), firstLanes(&c, ranks, n, P, kk)...)
		c.Compile(&want)
		got.CopyPrefix(pl, k)
		if got.N != want.N || got.P != want.P ||
			!reflect.DeepEqual(got.start, want.start) || !reflect.DeepEqual(got.nodes, want.nodes) {
			t.Fatalf("n=%d P=%d: prefix %d differs from the plan compiled from the first %d lanes:\n got %+v\nwant %+v", n, P, k, kk, got, want)
		}
		pr.Plan = &got
		for _, strict := range []bool{false, true} {
			checkAgainstReference(t, &pr, sl, &s, kk, sub, strict, [][2]int{{0, kk}})
		}
	}
}

// TestCopyPrefixArbitraryPlanes: the prefix property needs only the
// first-visit node order every builder keeps, not the best-first
// search's down-sets — duplicate lanes, a lone lane, a single level.
func TestCopyPrefixArbitraryPlanes(t *testing.T) {
	rng := rand.New(rand.NewSource(1406))
	cons := constellation.MustNew(16)
	sl := NewSlicer32(cons)
	for _, shape := range [][2]int{{1, 1}, {1, 9}, {2, 1}, {3, 7}, {4, 64}, {8, 33}} {
		n, P := shape[0], shape[1]
		for trial := 0; trial < 6; trial++ {
			var c Compiler
			maxRank := 1 + rng.Intn(16)
			ranks := c.Ranks(n, P)
			for i := range ranks {
				ranks[i] = int16(1 + rng.Intn(maxRank))
			}
			for p := 1; p < P; p += 3 { // duplicate lanes
				src := rng.Intn(p)
				for i := 0; i < n; i++ {
					ranks[i*P+p] = ranks[i*P+src]
				}
			}
			var pl Plan
			c.Compile(&pl)
			checkPrefixes(t, rng, sl, cons, &pl, ranks, n, P)
		}
	}
}

// TestCopyPrefixIncrementalBuild covers the other builder: a path
// search adding nodes through Begin/Extend/Finish the way internal/core's
// finder does — each path is an earlier one with one level w, no higher
// than that parent's own increment, stepped up; it shares the parent's
// nodes above w, its level-w node is the next sibling of the parent's,
// and below that it is new. The emission order is random, not best
// first: the structure alone must give the plan Compile builds.
func TestCopyPrefixIncrementalBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(1407))
	cons := constellation.MustNew(16)
	sl := NewSlicer32(cons)
	for _, shape := range [][2]int{{1, 12}, {2, 30}, {4, 64}, {8, 100}} {
		n, P := shape[0], shape[1]
		type cand struct{ parent, w int }
		vec := make([][]int, 0, P)    // rank vectors, emission order
		node := make([][]int32, 0, P) // per path: its node at every level
		var c Compiler
		c.Begin(n, P)
		emit := func(parent, w int) []cand {
			r := make([]int, n)
			nd := make([]int32, n)
			for i := range r {
				r[i] = 1
			}
			up, prev := int32(0), int32(-1)
			if len(vec) > 0 {
				copy(r, vec[parent])
				r[w]++
				copy(nd[w+1:], node[parent][w+1:])
				prev = node[parent][w]
				if w < n-1 {
					up = nd[w+1]
				}
			}
			c.Extend(up, prev, r[:w+1], nd)
			q := len(vec)
			vec, node = append(vec, r), append(node, nd)
			var kids []cand
			for l := 0; l <= w; l++ {
				if r[l] < 16 { // stay inside the 16-QAM slicer's rank table
					kids = append(kids, cand{q, l})
				}
			}
			return kids
		}
		open := emit(0, n-1)
		for len(vec) < P {
			i := rng.Intn(len(open))
			pick := open[i]
			open = append(open[:i], open[i+1:]...)
			open = append(open, emit(pick.parent, pick.w)...)
		}
		var pl Plan
		c.Finish(&pl)
		ranks := make([]int16, n*P)
		for p, r := range vec {
			for i := range r {
				ranks[i*P+p] = int16(r[i])
			}
		}
		checkPrefixes(t, rng, sl, cons, &pl, ranks, n, P)
	}
}

// TestDescendSteadyStateAllocFree: once the scratch has seen the plan's
// shape, descending — and recompiling a same-shape plane — allocates
// nothing.
func TestDescendSteadyStateAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(1405))
	cons := constellation.MustNew(64)
	sl := NewSlicer32(cons)
	const n, P = 8, 64
	var pr Prep
	var s Scratch
	randomChannel(rng, &pr, n, cons)
	s.Ensure(n, P)
	fill := func() {
		ranks := pr.EnsureRanks(P)
		for i := range ranks {
			ranks[i] = int16(1 + (i*7)%5)
		}
	}
	fill()
	Descend(&pr, sl, &s, 0, P, false)
	if allocs := testing.AllocsPerRun(50, func() {
		fill()
		Descend(&pr, sl, &s, 0, P, false)
	}); allocs != 0 {
		t.Errorf("compile + descend: %.1f allocs/op in steady state, want 0", allocs)
	}
}
