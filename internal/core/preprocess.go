package core

import (
	"math"
	"slices"

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
// search, in the units of the paper's Table 2, the processing elements
// it activated, and the coherence-reuse counters of the channel-rate
// fast path. Every field is a counter: runs, shards and a frame's lanes
// combine by Add, in any order.
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
	// ActivePaths sums the selected paths — the processing elements
	// activated — over the prepared subcarriers: divided by
	// OpCount.Prepares it is the mean active-PE count of Fig. 10 (NPE for
	// FlexCore, fewer for a-FlexCore).
	ActivePaths int64
	// CacheHits counts Prepare calls that reused the position vectors of
	// a coherent earlier channel instead of re-running the tree search
	// (0 unless Options.PathReuse is enabled).
	CacheHits int64
	// CacheMisses counts Prepare calls that ran the tree search afresh
	// while the reuse cache was enabled.
	CacheMisses int64
}

// Add accumulates other into s — every field is a counter — the
// aggregation the serving layer uses to merge per-shard detector stats
// into one metrics snapshot, and FlexCore.Fold a helper's into its
// owner's.
func (s *PreprocessStats) Add(other PreprocessStats) {
	s.RealMuls += other.RealMuls
	s.Expanded += other.Expanded
	s.ActivePaths += other.ActivePaths
	s.CacheHits += other.CacheHits
	s.CacheMisses += other.CacheMisses
}

// pathStore is an owned path set: its descent plan — the paths' prefix
// trie, one lane per path in emission order, written by the search as it
// emits — with each path's log-probability, the bound it was searched
// under, and the rank vectors, materialised from the plan only for the
// callers that read them (view). Every frame slot and every ReuseState
// base — scalar Prepare's included — own one; all storage regrows only
// past its high-water mark.
type pathStore struct {
	logP  []float64     // per path: log Pc
	limit int           // the N_PE bound of the search that selected the paths
	plan  kernel32.Plan // the paths' prefix trie: lane q is path q

	viewed bool   // paths and ranks hold the current set's rank vectors
	paths  []Path // the rank view (view)
	ranks  []int  // backing for paths[q].Ranks, path-major
}

// ensure sizes the per-path arenas for up to nPE paths and empties the
// set.
func (s *pathStore) ensure(nPE int) {
	s.logP = slices.Grow(s.logP[:0], nPE)
	s.viewed = false
}

// count returns the number of paths in the set.
//
//flexcore:noalloc
func (s *pathStore) count() int { return len(s.logP) }

// covers reports whether the set answers a search bounded at k: the
// first k paths are the same under every bound ≥ k (FindPaths), so a set
// searched under limit ≥ k does by prefix, and a set that came back
// shorter than its bound stopped on the threshold or ran out of tree —
// no larger bound would have found more.
//
//flexcore:noalloc
func (s *pathStore) covers(k int) bool {
	return s.limit >= k || s.count() < s.limit
}

// view returns the set as rank vectors, materialised from the plan into
// the store's own arenas on the first call after the set changed. Only
// the complex128 walk, DetectSoft and the Paths surfaces read ranks; the
// SoA descent reads the plan.
func (s *pathStore) view() []Path {
	if s.viewed {
		return s.paths
	}
	P, n := s.count(), s.plan.N
	s.paths, s.ranks = slices.Grow(s.paths[:0], P)[:P], slices.Grow(s.ranks[:0], P*n)[:P*n]
	s.plan.Ranks(s.ranks)
	for q := range s.paths {
		s.paths[q] = Path{Ranks: s.ranks[q*n : (q+1)*n : (q+1)*n], LogP: s.logP[q]}
	}
	s.viewed = true
	return s.paths
}

// copyFrom makes s a deep copy of src as a search bounded at k would
// have selected it: src's first k paths, all of them when it has no
// more. src must cover k.
func (s *pathStore) copyFrom(src *pathStore, k int) {
	P := min(k, src.count())
	s.logP = append(s.logP[:0], src.logP[:P]...)
	s.limit = src.limit
	if P < src.count() {
		s.limit = k
	}
	s.plan.CopyPrefix(&src.plan, P)
	s.viewed = false
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
// that level has reached |Q|. Queue w holds the parents with lim > w; a
// queue that has passed every emitted path is empty until the next path
// it may take.
//
// Exact ties go to the smaller parent index, then the smaller level.
// That is the order in which the eager formulation inserts children, so
// the merge emits what a FIFO-among-equals sorted list would, bit for
// bit (preprocess_test.go keeps that formulation as an executable spec).
//
// The emitted paths are the lanes of the descent plan the search writes
// as it goes (kernel32.Plan.Branch): a path's rank vector is its
// parent's with one level stepped up, so it costs the plan four stores,
// and no rank vector is ever copied.
//
// A finder is not safe for concurrent use; its arenas regrow only past
// their high-water marks, so one finder serves searches of any mix of
// shapes without allocating once the largest has been seen.
type pathFinder struct {
	par  []int32   // per level: the queue's head parent, emptyQueue when it has none
	key  []float64 // per level: logP[par] + logPe[level], −Inf when the queue is empty
	lims []int16   // per emitted path: its legal increments are levels [0, lim)
	pc   []float64 // per emitted path: Pc, carried as Pc(parent)·Pe(w)
}

// emptyQueue is the head parent of an empty queue: it loses every
// exact tie, and its key −Inf every other compare.
const emptyQueue = math.MaxInt32

// ensure grows the finder's arenas for an n-level, nPE-path search.
func (f *pathFinder) ensure(n, nPE int) {
	f.par, f.key = slices.Grow(f.par[:0], n), slices.Grow(f.key[:0], n)
	f.pc, f.lims = slices.Grow(f.pc[:0], nPE), slices.Grow(f.lims[:0], nPE)
}

// find runs the pre-processing search (see FindPaths for the contract)
// straight into dst, plan included: a plan depends on the rank vectors
// alone, so it is built once per search and then copied with the paths.
//
//flexcore:noalloc
func (f *pathFinder) find(m *Model, nPE int, stopThreshold float64, dst *pathStore) PreprocessStats {
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
	f.ensure(n, nPE)
	dst.ensure(nPE)
	pl := &dst.plan
	pl.Begin(n, nPE, m.M)
	logP := dst.logP[:nPE]
	lims, pc := f.lims[:nPE], f.pc[:nPE]
	par, key, logPe := f.par[:n], f.key[:n], m.logPe[:n]
	full := 4 * (int32(m.M) - 1) // the slicer offset of rank |Q|: saturated

	// Root: the all-ones position vector, Pc = Π (1 − Pe(l)). Every queue
	// starts on it.
	rootLogP := m.RootLogP()
	pc[0] = 1
	for i := range key {
		pc[0] *= 1 - m.Pe[i]
		par[i], key[i] = emptyQueue, math.Inf(-1)
	}
	logP[0] = rootLogP
	lim := n // the last emitted path's legal increments: levels [0, lim)
	if m.M < 2 {
		lim = 0
	}
	lims[0] = int16(lim)
	for w := 0; w < lim; w++ {
		par[w], key[w] = 0, rootLogP+logPe[w]
	}

	stats := PreprocessStats{RealMuls: int64(n)}
	count, cum := 1, 0.0
	for {
		cum += pc[count-1]
		stats.Expanded++
		if stopThreshold > 0 && cum >= stopThreshold {
			break
		}
		stats.RealMuls += int64(lim) // the paper's search multiplies out every legal child here
		if count == nPE {
			break
		}

		// The best queue head: highest key, then earliest parent, then
		// lowest level (the ascending scan keeps the first of equals). The
		// first queue that has a head is taken whatever its key, so a NaN
		// key (a NaN channel's model) is emitted, not dropped.
		bw, bk, bp := -1, math.Inf(-1), int32(emptyQueue)
		for w, p := range par {
			if k := key[w]; k > bk || (k == bk && p < bp) || bw < 0 && p != emptyQueue { //lint:ignore floatcmp merge comparator: exact ties must fall through to the parent-index tie-break for a bit-identical emission order
				bw, bk, bp = w, k, p
			}
		}
		if bw < 0 {
			break
		}

		// Emit it: the parent's path with level bw stepped up.
		q := count
		logP[q] = bk
		pc[q] = pc[bp] * m.Pe[bw]
		lim = bw + 1
		if pl.Branch(int(bp), bw) >= full {
			lim = bw
		}
		lims[q] = int16(lim)
		count++

		// The queues of the levels q may increment take it as their head
		// if they had run dry.
		for w := range par[:lim] {
			if par[w] == emptyQueue {
				par[w], key[w] = int32(q), bk+logPe[w]
			}
		}
		// Queue bw moves past the parent it just spent.
		p := int(bp) + 1
		for p < count && int(lims[p]) <= bw {
			p++
		}
		if p < count {
			par[bw], key[bw] = int32(p), logP[p]+logPe[bw]
		} else {
			par[bw], key[bw] = emptyQueue, math.Inf(-1)
		}
	}
	dst.logP = logP[:count]
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
	stats := f.find(m, nPE, stopThreshold, &dst)
	return dst.view(), stats
}

// FindPaths32 is FindPaths: both backends run one search. The name is
// kept for callers that select an entry point per backend.
func FindPaths32(m *Model, nPE int, stopThreshold float64) ([]Path, PreprocessStats) {
	return FindPaths(m, nPE, stopThreshold)
}
