package kernel32

import (
	"fmt"
	"math"
	"slices"
)

// Plan is a path set compiled for descent: the prefix trie of its rank
// vectors, indexed by lane. A node at level j stands for one distinct
// rank suffix ranks[j..N−1]; every selected path that shares the suffix
// shares the node, so Descend slices it — and cancels its symbol — once
// instead of once per path. Level 0 is the exception: it keeps exactly
// one leaf per lane, so a descent's result is a lane index and
// duplicate paths stay distinct lanes.
//
// Every node has an owner: the lowest lane through it. Lane q owns its
// nodes from level top[q] — its first node no lower lane shares — down
// to its leaf, and lane q > 0 comes from lane from[q] < q: the owner of
// its top node's previous sibling, whose path is q's with the rank at
// top[q] one lower and every rank above it the same. So a node is
// (level, owner lane), and following from[] reaches the owners of a
// lane's nodes above its top.
//
// The plan stores only nodes: leaf q is leaf[q], and lane q's inner
// nodes, levels top[q] down to 1, are the run inner[runs[q]:runs[q+1]],
// top level first — node (j, q) is inner[runs[q+1]−j] — with the runs
// in lane order, so top[q] is the run's length. A node holds its slicer
// table offset and its next sibling's owner. The first child of node
// (j, q) is always (j−1, q): stepping down keeps the lane and moves one
// slot forward, or to the lane's leaf. Siblings are chained in
// increasing owner lane, which is the order the lanes first visit them,
// and a link ≥ P means none: the first k lanes of a plan own exactly the
// nodes those lanes walk, and they are the first k leaves and the first
// runs[k] inner slots.
//
// Every arena slot the plan's nodes do not hold is a zero node, which
// reads as rank 1 with no sibling — what a lane's nodes below its top
// are when it is created — so the search writes only the nodes that
// differ from it (Branch).
//
// A Plan depends on the rank vectors only — never on the channel or the
// received signal — so it belongs to whoever owns the path set:
// internal/core's path search writes one as it emits paths (Begin,
// Branch) and copies it wherever it copies the paths. It is read-only
// once built and safe to share between descents.
type Plan struct {
	N int // tree levels
	P int // lanes (selected paths)

	leaf  []node  // per lane: its leaf, the node at level 0
	inner []node  // the lanes' runs of inner nodes in lane order, each top level first
	runs  []int32 // per lane q: its run is inner[runs[q]:runs[q+1]]; runs[0] = 0
	from  []int32 // per lane: the owner of its top node's previous sibling, −1 for lane 0
}

// node is one trie node as Descend reads it. The zero node is a rank-1
// node with no sibling.
type node struct {
	kidx int32 // 4·(rank−1): the rank's row of Slicer32.off
	link int32 // the next sibling's owner lane ^ noSib, so that 0 is none
}

// noSib is the sibling lane a node without one reads: past every plan.
const noSib = math.MaxInt32

// sib returns the next sibling's owner lane, ≥ P for none.
//
//flexcore:noalloc
func (v node) sib() int32 { return v.link ^ noSib }

// fill sets every element of s to v by doubling copies.
func fill[T any](s []T, v T) {
	if len(s) > 0 {
		s[0] = v
	}
	for f := 1; f < len(s); f *= 2 {
		copy(s[f:], s[:f])
	}
}

// resize returns s with length n, growing its backing array only past
// its capacity. Elements within the old capacity keep their values, and
// a grown array is zero.
func resize[T any](s []T, n int) []T { return slices.Grow(s[:0], n)[:n] }

// Nodes returns the number of distinct tree nodes a descent of the plan
// slices (the root excluded): N·P when no two paths share a suffix,
// far fewer for a best-first path set. It is also the number of nodes
// the plan stores, and the length of the node planes of a Scratch that
// descends it.
//
//flexcore:noalloc
func (pl *Plan) Nodes() int {
	if pl.P == 0 {
		return 0
	}
	return pl.P + int(pl.runs[pl.P])
}

// Bytes returns the bytes the plan's path set occupies: eight per node,
// and per lane four for its run bound and four for its origin. A descent
// reads the nodes and the run bounds; the origins only the rank view and
// the winner's gather.
//
//flexcore:noalloc
func (pl *Plan) Bytes() int {
	return 8*pl.Nodes() + 8*pl.P + 4
}

// top returns lane q's highest owned level: the length of its run.
//
//flexcore:noalloc
func (pl *Plan) top(q int) int {
	return int(pl.runs[q+1] - pl.runs[q])
}

// at returns node (j, q), which lane q must own (j ≤ top[q]).
//
//flexcore:noalloc
func (pl *Plan) at(j, q int) *node {
	if j == 0 {
		return &pl.leaf[q]
	}
	return &pl.inner[int(pl.runs[q+1])-j]
}

// owner returns the lane that owns lane q's node at level j: q itself up
// to its top, and above it the owner of that level's node on the path q
// comes from, which is the same node.
//
//flexcore:noalloc
func (pl *Plan) owner(j, q int) int {
	for j > pl.top(q) {
		q = int(pl.from[q])
	}
	return q
}

// slot returns the index of node (j, q), which lane q must own, in the
// node planes of a Scratch that descends the plan: a leaf is its lane,
// and inner node i follows the P leaves at P+i.
//
//flexcore:noalloc
func (pl *Plan) slot(j, q int) int {
	if j == 0 {
		return q
	}
	return pl.P + int(pl.runs[q+1]) - j
}

// Touch loads one word of every cache line a descent of the plan reads —
// its leaves, its inner runs and its run bounds — and returns their sum,
// which the caller must keep for the loads to stay. The loads are
// independent of one another, so the lines of a plan written long ago
// arrive together, where the walk, each of whose steps waits on the node
// before it, would take their misses one at a time.
//
//flexcore:noalloc
func (pl *Plan) Touch() int32 {
	if pl.P == 0 {
		return 0
	}
	leaf, runs := pl.leaf[:pl.P], pl.runs[:pl.P+1]
	inner := pl.inner[:runs[pl.P]]
	// Eight nodes or sixteen run bounds to a 64-byte line; the last
	// element too, for an array that starts mid-line.
	x := leaf[len(leaf)-1].kidx + runs[len(runs)-1]
	for i := 0; i < len(leaf); i += 8 {
		x += leaf[i].kidx
	}
	for i := 0; i < len(inner); i += 8 {
		x += inner[i].kidx
	}
	if len(inner) > 0 {
		x += inner[len(inner)-1].kidx
	}
	for i := 0; i < len(runs); i += 16 {
		x += runs[i]
	}
	return x
}

// Check reports the first way pl breaks the layout every builder keeps,
// or nil: the plan's runs lie in lane order and each is one of its
// lane's levels, every arena slot beyond its Nodes() is a zero node,
// lane 0 owns a node at every level, every other lane comes from a lower
// lane whose node at its top links to the lane's, and every sibling link
// points to a higher lane.
func (pl *Plan) Check() error {
	n, P := pl.N, pl.P
	if P == 0 {
		return nil
	}
	if len(pl.leaf) < P || len(pl.runs) < P+1 || len(pl.from) < P {
		return fmt.Errorf("kernel32: plan of %d lanes has %d leaves, %d run bounds, %d origins", P, len(pl.leaf), len(pl.runs), len(pl.from))
	}
	if pl.runs[0] != 0 || int(pl.runs[P]) > len(pl.inner) {
		return fmt.Errorf("kernel32: plan's runs span [%d, %d) of %d inner slots", pl.runs[0], pl.runs[P], len(pl.inner))
	}
	if i := slices.IndexFunc(pl.leaf[P:cap(pl.leaf)], func(v node) bool { return v != node{} }); i >= 0 {
		return fmt.Errorf("kernel32: leaf slot %d beyond the plan's %d lanes holds %+v", P+i, P, pl.leaf[P+i])
	}
	if i := slices.IndexFunc(pl.inner[pl.runs[P]:cap(pl.inner)], func(v node) bool { return v != node{} }); i >= 0 {
		return fmt.Errorf("kernel32: inner slot %d beyond the plan's %d holds %+v", int(pl.runs[P])+i, pl.runs[P], pl.inner[int(pl.runs[P])+i])
	}
	if pl.top(0) != n-1 || pl.from[0] != -1 {
		return fmt.Errorf("kernel32: lane 0's run has %d nodes and comes from lane %d, want %d and -1", pl.top(0), pl.from[0], n-1)
	}
	for q := range P {
		top, from := pl.top(q), int(pl.from[q])
		switch {
		case top < 0 || top > n-1:
			return fmt.Errorf("kernel32: lane %d's run has %d nodes, outside [0, %d)", q, top, n)
		case q > 0 && (from < 0 || from >= q):
			return fmt.Errorf("kernel32: lane %d comes from lane %d", q, from)
		case q > 0 && (pl.top(from) < top || pl.at(top, from).sib() != int32(q)):
			return fmt.Errorf("kernel32: lane %d of top %d comes from lane %d of top %d, whose node there links to lane %d", q, top, from, pl.top(from), pl.at(min(top, pl.top(from)), from).sib())
		}
		for j := range top + 1 {
			if sib := pl.at(j, q).sib(); sib <= int32(q) {
				return fmt.Errorf("kernel32: node (%d, %d) links to sibling lane %d", j, q, sib)
			}
		}
	}
	return nil
}

// reset empties the plan and shapes it for lanes lanes of n levels with
// inner inner slots, growing the arenas only past their high-water
// marks. Its old nodes are zeroed first, so every slot of the arenas is
// a zero node.
//
//flexcore:noalloc
func (pl *Plan) reset(n, lanes, inner int) {
	if pl.P > 0 {
		clear(pl.leaf[:pl.P])
		clear(pl.inner[:pl.runs[pl.P]])
	}
	pl.N, pl.P = n, 0
	pl.leaf, pl.from = resize(pl.leaf, lanes), resize(pl.from, lanes)
	pl.runs, pl.inner = resize(pl.runs, lanes+1), resize(pl.inner, inner)
	pl.runs[0] = 0
}

// Begin starts a plan of n levels with room for lanes lanes of ranks up
// to m: lane 0 is the all-ones path, which owns a node at every level —
// a run of n−1 zero nodes and a zero leaf. Further lanes come from
// Branch. It clears only the nodes of the plan it replaces.
//
//flexcore:noalloc
func (pl *Plan) Begin(n, lanes, m int) {
	// Level j holds at most one node per lane and one per distinct rank
	// suffix ranks[j..n−1], of which there are m^(n−j).
	inner, suffixes := 0, 1
	for range n - 1 {
		suffixes = min(suffixes*max(m, 1), lanes)
		inner += suffixes
	}
	pl.reset(n, lanes, inner)
	pl.P, pl.runs[1], pl.from[0] = 1, int32(n-1), -1
}

// Branch adds lane q = P: lane p's path with the rank at level w stepped
// up, which must be a level p owns (w ≤ top[p]; a best-first search
// increments only levels at or below a path's last increment). The new
// path shares p's nodes above w; its level-w node is the next sibling of
// p's — the children of one node are created in rank order, by one
// increment each — and below w its nodes are new, rank 1 and as yet
// childless, which the zero slots its run and leaf take already say. So
// it writes the new node's offset, p's link to it, the run's end and
// the lane's origin: four stores. It returns the new node's slicer
// offset, 4·(rank−1).
//
//flexcore:noalloc
func (pl *Plan) Branch(p, w int) int32 {
	q, runs := pl.P, pl.runs
	pl.P = q + 1
	b := runs[q]
	runs[q+1] = b + int32(w)
	pl.from[q] = int32(p)
	at, nw := &pl.leaf[p], &pl.leaf[q]
	if w > 0 {
		at, nw = &pl.inner[runs[p+1]-int32(w)], &pl.inner[b]
	}
	k := at.kidx + 4
	at.link, nw.kidx = int32(q)^noSib, k
	return k
}

// Ranks writes every lane's 1-based rank vector into dst, lane-major
// (dst[q·N+j] is lane q's rank at level j): a lane's own nodes give the
// levels up to its top, the lane it comes from gives the rest.
//
//flexcore:noalloc
func (pl *Plan) Ranks(dst []int) {
	n := pl.N
	for q := range pl.P {
		row, top := dst[q*n:(q+1)*n], pl.top(q)
		for j := range row[:top+1] {
			row[j] = int(pl.at(j, q).kidx)/4 + 1
		}
		if f := int(pl.from[q]); f >= 0 {
			copy(row[top+1:], dst[f*n+top+1:(f+1)*n])
		}
	}
}

// CopyPrefix makes pl a deep copy of the plan of src's first k lanes
// (all of src when k ≥ src.P), growing pl's arenas only past their
// high-water marks. The first k lanes own exactly the nodes those lanes
// walk, so the copy is a prefix of each of src's arrays; a sibling link
// to a lane beyond the prefix reads as none.
//
//flexcore:noalloc
func (pl *Plan) CopyPrefix(src *Plan, k int) {
	k = min(k, src.P)
	inner := 0
	if k > 0 {
		inner = int(src.runs[k])
	}
	pl.reset(src.N, k, inner)
	pl.P = k
	copy(pl.leaf, src.leaf)
	copy(pl.inner, src.inner)
	copy(pl.runs, src.runs)
	copy(pl.from, src.from)
}

// Equal reports whether pl and o are the same trie stored the same way:
// the same shape and, slot for slot, the same runs, origins and nodes —
// a sibling link ≥ P read as none.
func (pl *Plan) Equal(o *Plan) bool {
	P := pl.P
	if pl.N != o.N || P != o.P {
		return false
	}
	if P == 0 {
		return true
	}
	if !slices.Equal(pl.runs[:P+1], o.runs[:P+1]) || !slices.Equal(pl.from[:P], o.from[:P]) {
		return false
	}
	same := func(v, w node) bool {
		return v.kidx == w.kidx && min(v.sib(), int32(P)) == min(w.sib(), int32(P))
	}
	inner := pl.runs[P]
	return slices.EqualFunc(pl.leaf[:P], o.leaf[:P], same) && slices.EqualFunc(pl.inner[:inner], o.inner[:inner], same)
}

// Compiler builds Plans from a staged rank plane (Ranks, Compile): the
// route for callers that hold rank vectors rather than a search that
// knows how its paths derive from one another. It owns the staging plane
// and the compile scratch, so one Compiler serves any number of
// sequential builds without allocating once its shapes settle. It is
// not safe for concurrent use.
type Compiler struct {
	n, p  int
	ranks []int16    // level-major n×p staging plane: ranks[i*p+lane]
	cur   []int32    // per lane: its node at the level above, by index
	owner [2][]int32 // per node of this level and the one above, by index: its owner lane
	pid   []int32    // per node of this level, by index: its parent's
	head  []int32    // per node of the level above, by index: its first child's owner
	table []uint64   // (parent index, rank) → stamp<<32 | index, see Compile and index
	gen   uint32     // stamp of the level being compiled
}

// Ranks sizes the staging plane for n levels × p lanes — and the compile
// scratch with it, past their high-water marks only — and returns it for
// the caller to fill level-major (ranks[i*p+lane] = the lane's 1-based
// rank at level i) before Compile.
func (c *Compiler) Ranks(n, p int) []int16 {
	c.n, c.p = n, p
	grow := func(s []int32) []int32 { return slices.Grow(s[:0], p+1)[:p+1] } // the root's level has one node
	c.ranks = slices.Grow(c.ranks[:0], n*p)[:n*p]
	c.cur, c.pid, c.head = grow(c.cur), grow(c.pid), grow(c.head)
	c.owner = [2][]int32{grow(c.owner[0]), grow(c.owner[1])}
	return c.ranks
}

// stamp sizes the (parent, rank) table for size entries and opens a
// fresh stamp for them.
func (c *Compiler) stamp(size int) []uint64 {
	if cap(c.table) < size {
		c.table = make([]uint64, size, 2*size)
		c.gen = 0
	}
	if c.gen++; c.gen == 0 { // stamp wrapped: old entries could pass for new
		clear(c.table[:cap(c.table)])
		c.gen = 1
	}
	return c.table[:size]
}

// Compile builds the prefix trie of the staged rank plane into pl. Any
// plane of ranks ≥ 1 is accepted — not only the down-sets the best-first
// search emits: duplicate lanes, a lone lane, a single level. The plan
// is the one the search builds for the same paths, stored the same way:
// a lane's node at a level is owned by the first lane that visits its
// (parent node, rank) pair, and every node below a lane's first new one
// is new too, so any plane has this form — a duplicate lane owns only
// its leaf.
//
// A level's nodes are indexed top down, taking the lanes in order: a
// lane's node at level j is identified by (its node at level j+1, its
// rank at j), looked up in a direct-address table of nodes(j+1) ×
// maxRank entries (index). The table is never cleared between levels or
// compiles: every level writes its entries under a fresh stamp and
// believes only entries carrying it, so stale contents are harmless.
// A node's slot depends on the tops of every lower lane, so the levels
// are indexed twice: the first sweep finds each lane's top, which places
// the runs; the second writes each level's new nodes, links them and
// records the lane each lane comes from. The whole compile is O(N·P).
//
//flexcore:noalloc
func (c *Compiler) Compile(pl *Plan) {
	n, P := c.n, c.p
	mr := int32(1)
	for _, r := range c.ranks {
		if r < 1 {
			panic("kernel32: rank plane entry < 1")
		}
		mr = max(mr, int32(r))
	}
	pl.reset(n, P, 0)
	pl.P = P

	// Sweep 1: a lane's top is the level of its first node — under the
	// root, or under another lane's. runs[q+1] holds lane q's top until
	// the runs are placed.
	clear(c.cur) // every lane starts under the root: node 0 of level n, owned by lane 0
	above, first := 1, true
	for j := n - 1; j >= 0; j-- {
		k := c.index(j, mr, above)
		for e := range k {
			if q := c.owner[0][e]; first || c.owner[1][c.pid[e]] != q {
				pl.runs[q+1] = int32(j)
			}
		}
		c.owner[0], c.owner[1], above, first = c.owner[1], c.owner[0], k, false
	}
	for q := range P {
		pl.runs[q+1] += pl.runs[q]
	}
	pl.inner = resize(pl.inner, int(pl.runs[P]))

	// Sweep 2: write the nodes, last first: pushing each in front of its
	// parent's children leaves every chain in lane order, headed by the
	// node of the parent's own lane. A node pushed in front of a lane's
	// top node is the one that lane comes from; only lane 0's top node
	// heads the root's chain.
	clear(c.cur)
	above = 1
	if P > 0 {
		pl.from[0] = -1
	}
	for j := n - 1; j >= 0; j-- {
		k := c.index(j, mr, above)
		row := c.ranks[j*P : (j+1)*P]
		head := c.head[:above]
		fill(head, noSib)
		for e := k - 1; e >= 0; e-- {
			q, p := int(c.owner[0][e]), c.pid[e]
			h := head[p]
			*pl.at(j, q) = node{kidx: 4 * (int32(row[q]) - 1), link: h ^ noSib}
			if h != noSib && pl.top(int(h)) == j {
				pl.from[h] = int32(q)
			}
			head[p] = int32(q)
		}
		c.owner[0], c.owner[1], above = c.owner[1], c.owner[0], k
	}
}

// index numbers the nodes of level j, whose parents are the above nodes
// of level j+1 that cur points the lanes at: the first lane to visit a
// (parent, rank) pair makes a node, later lanes share it. Leaves are
// never merged: lane q is leaf q. It writes each node's owner and
// parent, moves cur down to level j and returns the level's node count.
//
//flexcore:noalloc
func (c *Compiler) index(j int, mr int32, above int) int {
	P := c.p
	row := c.ranks[j*P : (j+1)*P]
	owner, pid, cur := c.owner[0], c.pid, c.cur
	if j == 0 {
		for q := range row {
			owner[q], pid[q] = int32(q), cur[q]
		}
		return P
	}
	table, gen := c.stamp(above*int(mr)), uint64(c.gen)
	k := 0
	for q, r := range row {
		key := cur[q]*mr + int32(r) - 1
		ent := table[key]
		if ent>>32 != gen {
			ent = gen<<32 | uint64(k)
			table[key] = ent
			owner[k], pid[k] = int32(q), cur[q]
			k++
		}
		cur[q] = int32(ent)
	}
	return k
}
