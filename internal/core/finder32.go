package core

import (
	"flexcore/internal/kernel32"
)

// pathFinder32 is the SoA backend's pre-processing search pool: the
// same §3.1.1 best-first expansion as pathFinder, restated in the
// lazy-sibling form classic to top-k enumeration. Where the eager
// search pushes every child of an expanded node (up to Nt per
// expansion), this one orders each node's children by log Pe through a
// per-search level permutation and pushes exactly two candidates per
// extraction — the extracted node's next sibling and the new path's
// first child. Any deferred candidate's key is bounded by the key of
// the sibling or parent that defers it, so the extraction sequence is
// the same descending-probability order as the eager search; only the
// FIFO order among exactly-tied keys can differ. The heap therefore
// never exceeds N_PE+1 packed 16-byte nodes — below the paper's |L| ≤
// N_PE trim bound without ever running a trim.
//
// The selected position vectors are emitted into the same Path structs;
// ranks are exact integers either way, only LogP carries float32
// precision, so the downstream machinery — coherence cache, frame
// slots, a-FlexCore stats — is backend-agnostic. RealMuls counts the
// probability multiplies this search actually performs (root product
// plus one per generated candidate), which is genuinely fewer than the
// eager search's — that is the point.
//
// The returned paths alias the finder's arenas and stay valid until its
// next find call. A finder is not safe for concurrent use.
type pathFinder32 struct {
	heap    candHeap32
	resBuf  []int // result arena, cap × n
	paths   []Path
	logPe32 []float32 // per-level log Pe, float32
	ord     []int16   // levels sorted by descending logPe (ties: ascending level)
	lp      []float32 // per-emitted-path log-probability (float32, no double rounding)
	li      []int16   // per-emitted-path lastInc (duplicate-suppression bound)
	n, cap  int

	comp    kernel32.Compiler // descent-plan build arenas (see link)
	nodeBuf []int32           // per emitted path: its plan node at every level, ≥ cap × n
}

// ensure grows the finder's arenas for an n-level, nPE-path search.
func (f *pathFinder32) ensure(n, nPE int) {
	if f.n != n || f.cap < nPE {
		f.n = n
		f.cap = nPE
		f.resBuf = make([]int, nPE*n)
		f.paths = make([]Path, 0, nPE)
		// Each extraction pushes at most two nodes and pops one, so the
		// heap never exceeds nPE+1 entries.
		f.heap = make(candHeap32, 0, nPE+2)
		f.lp = make([]float32, 0, nPE)
		f.li = make([]int16, 0, nPE)
	}
	if cap(f.logPe32) < n {
		f.logPe32 = make([]float32, n)
		f.ord = make([]int16, n)
	}
	f.logPe32 = f.logPe32[:n]
	f.ord = f.ord[:n]
	f.heap = f.heap[:0]
	f.paths = f.paths[:0]
	f.lp = f.lp[:0]
	f.li = f.li[:0]
}

// pushNext scans the child ordering from position t for the first legal
// increment of path parent — level ord[t] within the duplicate-
// suppression bound and below the rank cap — and pushes it with the
// next sequence number. It returns the advanced sequence counter.
//
//flexcore:noalloc
func (f *pathFinder32) pushNext(parent int32, t int32, bound int16, res []int, m int, seq uint32) uint32 {
	base := f.lp[parent]
	for ; int(t) < f.n; t++ {
		w := f.ord[t]
		if w > bound || res[w] >= m {
			continue
		}
		f.heap.push(candNode32{key: packKey(base+f.logPe32[w], seq), parent: parent, t: t})
		return seq + 1
	}
	return seq
}

// link adds emitted path q to the descent plan under construction — the
// prefix trie kernel32.Descend walks, one node per distinct rank suffix.
// q was derived from path parent by incrementing level w, so above w it
// shares its parent's nodes, and at w and below it is new: every level
// under w still has rank 1, and any path sharing such a suffix is a
// descendant of q in the generation order, so none was emitted before
// it. (The root passes w = n−1 and shares nothing.) Leaves are added one
// per path in emission order, which makes the plan's lanes the paths.
//
//flexcore:noalloc
func (f *pathFinder32) link(q, parent int, w int16, res []int) {
	n := f.n
	nodes := f.nodeBuf[q*n : (q+1)*n]
	up := int32(0) // the plan's root
	if int(w) < n-1 {
		copy(nodes[w+1:], f.nodeBuf[parent*n+int(w)+1:(parent+1)*n])
		up = nodes[w+1]
	}
	for j := int(w); j >= 0; j-- {
		up = f.comp.Add(j, up, res[j])
		nodes[j] = up
	}
}

// find runs the pre-processing tree search into the finder's pooled
// storage; see FindPaths for the algorithm contract (this is the
// float32 lazy-expansion twin — same expansion rule, same emitted set).
// With a non-nil pl it also builds the paths' descent plan into pl as it
// emits them: a plan depends on the rank vectors alone, so it is built
// once per search and then stored, copied and aliased with the paths.
//
//flexcore:noalloc
func (f *pathFinder32) find(m *Model, nPE int, stopThreshold float64, pl *kernel32.Plan) ([]Path, PreprocessStats) {
	var stats PreprocessStats
	n := m.Levels()
	if nPE < 1 {
		nPE = 1
	}
	// Cap at the total number of tree paths |Q|^Nt (avoiding overflow).
	total := 1.0
	for i := 0; i < n; i++ {
		total *= float64(m.M)
		if total > 1e15 {
			total = 1e15
			break
		}
	}
	if float64(nPE) > total {
		nPE = int(total)
	}
	f.ensure(n, nPE)

	// Per-level float32 log-probabilities, the root product and the
	// child ordering: levels sorted by descending logPe, stable in the
	// level index so exact ties extract lowest-level-first like the
	// eager search's FIFO.
	var root float32
	for i := 0; i < n; i++ {
		f.logPe32[i] = float32(m.logPe[i])
		root += float32(m.log1mPe[i])
		f.ord[i] = int16(i)
	}
	stats.RealMuls += int64(n)
	for i := 1; i < n; i++ { // insertion sort: n ≤ a few dozen levels
		for j := i; j > 0; j-- {
			a, b := f.ord[j-1], f.ord[j]
			if f.logPe32[a] > f.logPe32[b] || (f.logPe32[a] == f.logPe32[b] && a < b) { //lint:ignore floatcmp stable-sort comparator: exact ties fall through to the level tie-break
				break
			}
			f.ord[j-1], f.ord[j] = b, a
		}
	}

	// Root: the all-ones position vector, emitted directly.
	res := f.resBuf[:n:n]
	for i := range res {
		res[i] = 1
	}
	f.paths = append(f.paths, Path{Ranks: res, LogP: float64(root)}) //lint:ignore noalloc amortised: ensure reserves cap nPE
	f.lp = append(f.lp, root)                                        //lint:ignore noalloc amortised: see above
	f.li = append(f.li, int16(n-1))                                  //lint:ignore noalloc amortised: see above
	if pl != nil {
		if cap(f.nodeBuf) < nPE*n {
			f.nodeBuf = make([]int32, nPE*n) //lint:ignore noalloc amortised: regrows only when the search shape grows
		}
		f.comp.Begin(n, nPE) //lint:ignore noalloc amortised: the inlined arena helper allocates only when the search shape grows
		f.link(0, 0, int16(n-1), res)
	}
	cumulative := float64(kernel32.Exp32(root))
	stats.Expanded++
	seq := uint32(0)
	if !(stopThreshold > 0 && cumulative >= stopThreshold) && nPE > 1 {
		seq = f.pushNext(0, 0, int16(n-1), res, m.M, seq)
		stats.RealMuls += int64(seq)
	}

	for len(f.paths) < nPE && len(f.heap) > 0 {
		node := f.heap.popMax()
		logP := keyLogP(node.key)
		w := f.ord[node.t]
		pres := f.resBuf[int(node.parent)*n : (int(node.parent)+1)*n]
		// Materialise the new path from its parent's rank vector.
		q := len(f.paths)
		res := f.resBuf[q*n : (q+1)*n : (q+1)*n]
		copy(res, pres)
		res[w]++
		f.paths = append(f.paths, Path{Ranks: res, LogP: float64(logP)}) //lint:ignore noalloc amortised: ensure reserves cap nPE and the loop emits at most nPE paths
		f.lp = append(f.lp, logP)                                        //lint:ignore noalloc amortised: see above
		f.li = append(f.li, w)                                           //lint:ignore noalloc amortised: see above
		if pl != nil {
			f.link(q, int(node.parent), w, res)
		}
		cumulative += float64(kernel32.Exp32(logP))
		stats.Expanded++
		if stopThreshold > 0 && cumulative >= stopThreshold {
			break
		}
		// Two deferred candidates replace the eager child fan-out: the
		// extracted node's next sibling under its own parent, and the
		// first child of the path just emitted.
		before := seq
		seq = f.pushNext(node.parent, node.t+1, f.li[node.parent], pres, m.M, seq)
		seq = f.pushNext(int32(q), 0, w, res, m.M, seq)
		stats.RealMuls += int64(seq - before)
	}
	stats.CumulativeProb = cumulative
	if pl != nil {
		f.comp.Finish(pl)
	}
	return f.paths, stats
}

// FindPaths32 is the standalone entry point of the float32 search — the
// SoA-backend twin of FindPaths, allocating a fresh pool per call so
// the returned paths are the caller's to keep. FlexCore detectors with
// Options.Backend == BackendSoA32 reuse a persistent pool instead.
func FindPaths32(m *Model, nPE int, stopThreshold float64) ([]Path, PreprocessStats) {
	var f pathFinder32
	return f.find(m, nPE, stopThreshold, nil)
}
