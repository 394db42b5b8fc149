package core

import (
	"math"

	"flexcore/internal/kernel32"
)

// Path is one sphere-decoder tree path selected by pre-processing,
// described relative to the future received signal: Ranks[i] is the
// 1-based closest-symbol rank chosen at R row i (row n−1 is the top tree
// level, decided first). LogP is the model log-probability log Pc.
type Path struct {
	Ranks []int
	LogP  float64
}

// Prob returns Pc(p) = exp(LogP).
func (p Path) Prob() float64 { return math.Exp(p.LogP) }

// PreprocessStats reports the work done by the pre-processing tree
// search, in the units of the paper's Table 2, plus the coherence-reuse
// counters of the channel-rate fast path.
type PreprocessStats struct {
	// RealMuls counts the probability-update multiplications of the
	// §3.1.1 search as the paper states it: the Nt-term root product plus
	// one Pc(child) = Pc(parent)·Pe(w) per legal child of every expanded
	// node. The finder evaluates fewer (it never materialises a child it
	// does not emit) and reports the paper's count in closed form, so
	// Table 2 measures the algorithm, not this implementation.
	RealMuls int64
	// Expanded counts expanded pre-processing tree nodes.
	Expanded int64
	// CumulativeProb is Σ Pc over the returned set E.
	CumulativeProb float64
	// CacheHits counts Prepare calls that reused the position vectors of
	// a coherent earlier channel instead of re-running the tree search
	// (0 unless Options.PathReuse is enabled).
	CacheHits int64
	// CacheMisses counts Prepare calls that ran the tree search afresh
	// while the reuse cache was enabled.
	CacheMisses int64
}

// Add accumulates the counter fields of other into s — the
// aggregation the serving layer uses to merge per-shard detector
// stats into one metrics snapshot. CumulativeProb is a per-Prepare
// instantaneous value, not a counter, so Add keeps s's value.
func (s *PreprocessStats) Add(other PreprocessStats) {
	s.RealMuls += other.RealMuls
	s.Expanded += other.Expanded
	s.CacheHits += other.CacheHits
	s.CacheMisses += other.CacheMisses
}

// pathStore is an owned path set: the header and rank arenas a search
// emits into, the set's cumulative probability, the bound it was
// searched under, and (SoA backend) its descent plan. Every frame slot
// and every ReuseState base — scalar Prepare's included — own one; all
// storage regrows only past its high-water mark.
type pathStore struct {
	paths []Path
	ranks []int         // backing for paths[i].Ranks, path-major
	cum   float64       // Σ Pc over paths
	limit int           // the N_PE bound of the search that selected paths
	plan  kernel32.Plan // the paths' prefix trie (empty on the complex128 backend)
}

// ensure sizes the arenas for up to nPE paths of n levels and empties
// the set.
func (s *pathStore) ensure(n, nPE int) {
	if cap(s.paths) < nPE {
		s.paths = make([]Path, nPE)
	}
	if cap(s.ranks) < nPE*n {
		s.ranks = make([]int, nPE*n)
	}
	s.paths = s.paths[:0]
}

// covers reports whether the set answers a search bounded at k: the
// first k paths are the same under every bound ≥ k (FindPaths), so a set
// searched under limit ≥ k does by prefix, and a set that came back
// shorter than its bound stopped on the threshold or ran out of tree —
// no larger bound would have found more.
//
//flexcore:noalloc
func (s *pathStore) covers(k int) bool {
	return s.limit >= k || len(s.paths) < s.limit
}

// copyFrom makes s a deep copy of src as a search bounded at k would
// have selected it: src's first k paths, all of them when it has no
// more. src must cover k.
func (s *pathStore) copyFrom(src *pathStore, k int) {
	P, n := min(k, len(src.paths)), 0
	if P > 0 {
		n = len(src.paths[0].Ranks)
	}
	s.ensure(n, P)
	s.paths = s.paths[:P]
	copy(s.ranks, src.ranks[:P*n])
	for i := range s.paths {
		s.paths[i] = Path{Ranks: s.ranks[i*n : (i+1)*n : (i+1)*n], LogP: src.paths[i].LogP}
	}
	s.cum, s.limit = src.cum, src.limit
	if P < len(src.paths) {
		// Cut short by k: Σ Pc from the log-probabilities (the search
		// carries Pc as a running product; the two agree to rounding).
		s.cum, s.limit = 0, k
		for _, p := range s.paths {
			s.cum += p.Prob()
		}
	}
	s.plan.CopyPrefix(&src.plan, P)
}

// pathFinder is the working state of the pre-processing search of
// §3.1.1 — the one search both backends run. The paper's candidate list
// is a best-first frontier: expand the most probable node, insert its
// children. Because the key is additive with one constant per level,
//
//	log Pc(child of p by level w) = log Pc(p) + log Pe(w),
//
// the frontier needs no priority queue. Fix a level w and list the
// candidates "increment w" over parents in emission order: parents are
// emitted in non-increasing log Pc and adding a constant is monotone, so
// that list is itself non-increasing. The frontier is therefore n sorted
// queues, each a cursor into the emitted list, and the next path is the
// best of the n queue heads — an n-way merge.
//
// The Fig. 5 duplicate-suppression rule (a node generated by incrementing
// level l only increments levels w ≤ l) means every level below a path's
// last increment still holds rank 1, so the only level that can be
// saturated at |Q| is the last-incremented one: a path's legal increments
// are exactly the levels [0, lim), with lim = lastInc+1, or lastInc when
// that level has reached |Q|. Queue w holds the parents with lim > w.
//
// Exact ties go to the smaller parent index, then the smaller level.
// That is the order in which the eager formulation inserts children, so
// the merge emits what a FIFO-among-equals sorted list would, bit for
// bit (preprocess_test.go keeps that formulation as an executable spec).
//
// A finder is not safe for concurrent use; its arenas regrow only past
// their high-water marks, so one finder serves searches of any mix of
// shapes without allocating once the largest has been seen.
type pathFinder struct {
	head []int32   // per level: cursor into the emitted list — the queue's next parent
	key  []float64 // per level: logP[head] + logPe[level], valid while head < emitted
	lim  []int16   // per emitted path: its legal increments are levels [0, lim)
	pc   []float64 // per emitted path: Pc, carried as Pc(parent)·Pe(w)

	comp    kernel32.Compiler // descent-plan build arenas (see link)
	nodeBuf []int32           // per emitted path: its plan node at every level
}

// ensure grows the finder's arenas for an n-level, nPE-path search.
func (f *pathFinder) ensure(n, nPE int, plan bool) {
	if cap(f.head) < n {
		f.head = make([]int32, n)
		f.key = make([]float64, n)
	}
	if cap(f.lim) < nPE {
		f.lim = make([]int16, nPE)
		f.pc = make([]float64, nPE)
	}
	if plan && cap(f.nodeBuf) < nPE*n {
		f.nodeBuf = make([]int32, nPE*n)
	}
}

// link adds emitted path q to the descent plan under construction — the
// prefix trie kernel32.Descend walks, one node per distinct rank suffix.
// q was derived from path parent by incrementing level w, so above w it
// shares its parent's nodes, and at w and below it is new: every level
// under w still has rank 1, and any path sharing such a suffix is a
// descendant of q in the generation order, so none was emitted before
// it. Its level-w node is the next sibling of the parent's: the children
// of one node are created in rank order, by one increment each. (The
// root passes w = n−1 and shares nothing.) Leaves are added one per path
// in emission order, which makes the plan's lanes the paths.
//
// A child of q increments a level w′ ≤ w and reads q's nodes at w′ and
// w′+1 only, so of the parent's nodes q keeps just the one at w+1.
//
//flexcore:noalloc
func (f *pathFinder) link(q, parent, w int, res []int) {
	n := len(res)
	nodes := f.nodeBuf[q*n : (q+1)*n]
	up, prev := int32(0), int32(-1) // the plan's root, no child yet
	if q > 0 {
		prev = f.nodeBuf[parent*n+w]
		if w < n-1 {
			up = f.nodeBuf[parent*n+w+1]
			nodes[w+1] = up
		}
	}
	f.comp.Extend(up, prev, res[:w+1], nodes)
}

// find runs the pre-processing search (see FindPaths for the contract)
// straight into dst. With plan set it also builds the paths' descent
// plan into dst.plan as it emits them: a plan depends on the rank
// vectors alone, so it is built once per search and then copied and
// aliased with the paths.
//
//flexcore:noalloc
func (f *pathFinder) find(m *Model, nPE int, stopThreshold float64, dst *pathStore, plan bool) PreprocessStats {
	n := m.Levels()
	if nPE < 1 {
		nPE = 1
	}
	dst.limit = nPE // the bound as asked: a set that exhausts the tree stays shorter than it
	// Cap at the total number of tree paths |Q|^Nt (avoiding overflow).
	total := 1.0
	for i := 0; i < n && total <= 1e15; i++ {
		total *= float64(m.M)
	}
	if float64(nPE) > total {
		nPE = int(total)
	}
	f.ensure(n, nPE, plan)
	dst.ensure(n, nPE)
	head, key, lim, pc := f.head[:n], f.key[:n], f.lim[:nPE], f.pc[:nPE]
	paths, ranks, logPe := dst.paths[:nPE], dst.ranks, m.logPe[:n]

	// Root: the all-ones position vector, Pc = Π (1 − Pe(l)). Every queue
	// starts on it.
	root := ranks[:n:n]
	rootLogP := m.RootLogP()
	pc[0] = 1
	for i := range root {
		root[i] = 1
		pc[0] *= 1 - m.Pe[i]
		head[i] = 0
		key[i] = rootLogP + logPe[i]
	}
	paths[0] = Path{Ranks: root, LogP: rootLogP}
	lim[0] = int16(n)
	if m.M < 2 {
		lim[0] = 0
	}
	if plan {
		f.comp.Begin(n, nPE)
		f.link(0, 0, n-1, root)
	}

	stats := PreprocessStats{RealMuls: int64(n)}
	count, cum := 1, 0.0
	for {
		cum += pc[count-1]
		stats.Expanded++
		if stopThreshold > 0 && cum >= stopThreshold {
			break
		}
		stats.RealMuls += int64(lim[count-1]) // the paper's search multiplies out every legal child here
		if count == nPE {
			break
		}

		// The best queue head: highest key, then earliest parent, then
		// lowest level (the ascending scan keeps the first of equals).
		bw, bk, bp := -1, 0.0, int32(0)
		for w, p := range head {
			if int(p) >= count {
				continue // queue w is waiting for a parent not emitted yet
			}
			if k := key[w]; bw < 0 || k > bk || (k == bk && p < bp) { //lint:ignore floatcmp merge comparator: exact ties must fall through to the parent-index tie-break for a bit-identical emission order
				bw, bk, bp = w, k, p
			}
		}
		if bw < 0 {
			break
		}

		// Emit it: the parent's rank vector with level bw incremented.
		q := count
		res := ranks[q*n : (q+1)*n : (q+1)*n]
		copy(res, ranks[int(bp)*n:(int(bp)+1)*n])
		res[bw]++
		paths[q] = Path{Ranks: res, LogP: bk}
		pc[q] = pc[bp] * m.Pe[bw]
		lim[q] = int16(bw + 1)
		if res[bw] >= m.M {
			lim[q] = int16(bw)
		}
		if plan {
			f.link(q, int(bp), bw, res)
		}
		count++

		// Queues that were waiting for q: the levels below bw take it
		// (lim[q] ≥ bw), the levels above never will.
		for w := 0; w < bw; w++ {
			if int(head[w]) == q {
				key[w] = bk + logPe[w]
			}
		}
		for w := bw + 1; w < n; w++ {
			if int(head[w]) == q {
				head[w]++
			}
		}
		// Queue bw moves past the parent it just spent.
		p := int(bp) + 1
		for p < count && int(lim[p]) <= bw {
			p++
		}
		head[bw] = int32(p)
		if p < count {
			key[bw] = paths[p].LogP + logPe[bw]
		}
	}
	dst.paths = paths[:count]
	dst.cum = cum
	stats.CumulativeProb = cum
	if plan {
		f.comp.Finish(&dst.plan)
	}
	return stats
}

// FindPaths runs the pre-processing tree search of §3.1.1: starting from
// the all-ones position vector it repeatedly expands the most promising
// node of the candidate list, collecting expanded nodes into the result
// set E, until nPE paths are selected or (if stopThreshold > 0) the
// cumulative probability of E reaches the threshold — the a-FlexCore
// stopping criterion. The returned paths are in descending Pc order,
// exact ties in the order the paper's list would insert them, and the
// first k paths are the same for every nPE ≥ k.
//
// Duplicate suppression follows Fig. 5: a node generated by incrementing
// element l only generates children for elements w ≤ l, so every position
// vector is produced exactly once (its increments sorted in non-
// increasing element order form the unique generation path).
//
// This standalone entry point allocates fresh storage per call, so the
// returned paths are the caller's to keep. FlexCore detectors run the
// same search (pathFinder) into their own pooled arenas instead.
func FindPaths(m *Model, nPE int, stopThreshold float64) ([]Path, PreprocessStats) {
	var f pathFinder
	var dst pathStore
	stats := f.find(m, nPE, stopThreshold, &dst, false)
	return dst.paths, stats
}

// FindPaths32 is FindPaths: both backends run one search. The name is
// kept for callers that select an entry point per backend.
func FindPaths32(m *Model, nPE int, stopThreshold float64) ([]Path, PreprocessStats) {
	return FindPaths(m, nPE, stopThreshold)
}
