package kernel32

import (
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
// to its leaf, and the node above top[q] is owned by lane up[q] < q (−1
// above the top level: the root). So a node is (level, owner lane), and
// its slot is j·stride+q in the level-major node plane, which holds
// each node's slicer table offset and its next sibling's owner. The
// first child of node (j, q) is always (j−1, q): stepping down keeps the
// lane. Siblings are chained in increasing owner lane, which is the
// order the lanes first visit them, and a link ≥ P means none: the first
// k lanes of a plan own exactly the nodes those lanes walk.
//
// A Plan depends on the rank vectors only — never on the channel or the
// received signal — so it belongs to whoever owns the path set:
// internal/core's path search writes one as it emits paths (Begin,
// Branch) and copies it wherever it copies the paths. It is read-only
// once built and safe to share between descents.
type Plan struct {
	N int // tree levels
	P int // lanes (selected paths)

	stride int     // slots per level: the lanes the plan was sized for, plus a cache line
	nodes  []node  // N×stride, level-major: node (j, q) at j·stride+q; slots above a lane's top unused
	top    []int32 // per lane: the highest level it owns
	up     []int32 // per lane: the owner of the node above its top, −1 for the root
}

// node is one trie node slot as Descend reads it. A fresh slot is a
// rank-1 node with no sibling.
type node struct {
	kidx int32 // 4·(rank−1): the rank's row of Slicer32.off
	sib  int32 // the next sibling's owner lane, ≥ P for none
}

// fresh is a slot no builder has written.
var fresh = node{sib: math.MaxInt32}

// fill sets every element of s to v by doubling copies.
func fill[T any](s []T, v T) {
	if len(s) > 0 {
		s[0] = v
	}
	for f := 1; f < len(s); f *= 2 {
		copy(s[f:], s[:f])
	}
}

// Nodes returns the number of distinct tree nodes a descent of the plan
// slices (the root excluded): N·P when no two paths share a suffix,
// far fewer for a best-first path set.
//
//flexcore:noalloc
func (pl *Plan) Nodes() int {
	nodes := 0
	for _, t := range pl.top[:pl.P] {
		nodes += int(t) + 1
	}
	return nodes
}

// size makes room for lanes lanes of n levels and sets the shape, growing
// the arenas only past their high-water mark. It clears nothing.
func (pl *Plan) size(n, lanes int) {
	// A row is padded by a cache line so that rows never lie a multiple of
	// 4 KiB apart: a load from one level right after a store to another
	// would otherwise wait on the store (address aliasing).
	pl.N, pl.P, pl.stride = n, lanes, lanes+8
	pl.nodes = slices.Grow(pl.nodes[:0], n*pl.stride)[:n*pl.stride]
	pl.top, pl.up = slices.Grow(pl.top[:0], lanes)[:lanes], slices.Grow(pl.up[:0], lanes)[:lanes]
}

// Begin starts a plan of n levels with room for lanes lanes: lane 0 is
// the all-ones path, which owns a node at every level. Further lanes
// come from Branch.
//
//flexcore:noalloc
func (pl *Plan) Begin(n, lanes int) {
	pl.size(n, lanes)
	fill(pl.nodes, fresh)
	pl.top[0], pl.up[0] = int32(n-1), -1
	pl.P = 1
}

// Branch adds lane q = P: lane p's path with the rank at level w stepped
// up, which must be a level p owns (w ≤ top[p]; a best-first search
// increments only levels at or below a path's last increment). The new
// path shares p's nodes above w; its level-w node is the next sibling of
// p's — the children of one node are created in rank order, by one
// increment each — and below w its nodes are new, rank 1 and as yet
// childless, which their fresh slots already say. That is four stores. It
// returns the new node's slicer offset, 4·(rank−1).
//
//flexcore:noalloc
func (pl *Plan) Branch(p, w int) int32 {
	row, q := pl.nodes[w*pl.stride:], pl.P
	k := row[p].kidx + 4
	row[q].kidx, row[p].sib = k, int32(q)
	pl.top[q], pl.up[q] = int32(w), int32(p)
	if int32(w) == pl.top[p] {
		pl.up[q] = pl.up[p]
	}
	pl.P = q + 1
	return k
}

// Ranks writes every lane's 1-based rank vector into dst, lane-major
// (dst[q·N+j] is lane q's rank at level j): a lane's own nodes give the
// levels up to its top, the lane that owns the node above gives the rest.
//
//flexcore:noalloc
func (pl *Plan) Ranks(dst []int) {
	n := pl.N
	for q := range pl.P {
		row, top := dst[q*n:(q+1)*n], int(pl.top[q])
		for j := range row[:top+1] {
			row[j] = int(pl.nodes[j*pl.stride+q].kidx)/4 + 1
		}
		if u := int(pl.up[q]); u >= 0 {
			copy(row[top+1:], dst[u*n+top+1:(u+1)*n])
		}
	}
}

// CopyPrefix makes pl a deep copy of the plan of src's first k lanes
// (all of src when k ≥ src.P), growing pl's arenas only past their
// high-water mark. The first k lanes own exactly the nodes those lanes
// walk, so the copy is the first k slots of every level; a sibling link
// to a lane beyond the prefix reads as none.
//
//flexcore:noalloc
func (pl *Plan) CopyPrefix(src *Plan, k int) {
	k = min(k, src.P)
	pl.size(src.N, k)
	for j := range pl.N {
		copy(pl.nodes[j*pl.stride:][:k], src.nodes[j*src.stride:])
	}
	copy(pl.top, src.top)
	copy(pl.up, src.up)
}

// Equal reports whether pl and o are the same trie: the same shape and,
// lane for lane, the same tops, owners above them and nodes — a sibling
// link ≥ P read as none.
func (pl *Plan) Equal(o *Plan) bool {
	P := pl.P
	if pl.N != o.N || P != o.P || !slices.Equal(pl.top[:P], o.top[:P]) || !slices.Equal(pl.up[:P], o.up[:P]) {
		return false
	}
	for q, top := range pl.top[:P] {
		for j := range int(top) + 1 {
			v, w := pl.nodes[j*pl.stride+q], o.nodes[j*o.stride+q]
			if v.kidx != w.kidx || min(v.sib, int32(pl.P)) != min(w.sib, int32(pl.P)) {
				return false
			}
		}
	}
	return true
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
	table []uint64   // (parent index, rank) → stamp<<32 | index, see Compile
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
// is the one the search builds for the same paths: a lane's node at a
// level is owned by the first lane that visits its (parent node, rank)
// pair, and every node below a lane's first new one is new too, so any
// plane has this form — a duplicate lane owns only its leaf.
//
// Two passes per level, top down. The first takes the lanes in order: a
// lane's node at level j is identified by (its node at level j+1, its
// rank at j), looked up in a direct-address table of nodes(j+1) ×
// maxRank entries. The table is never cleared between levels or
// compiles: every level writes its entries under a fresh stamp and
// believes only entries carrying it, so stale contents are harmless. The
// second writes the level's new nodes and links them. The whole compile
// is O(N·P).
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
	pl.size(n, P) // every slot a lane owns is written below; the others are never read
	cur, pid := c.cur, c.pid
	clear(cur) // every lane starts under the root: node 0 of level n, owned by lane 0
	owner, above := c.owner, 1
	for j := n - 1; j >= 0; j-- {
		row := c.ranks[j*P : (j+1)*P]
		// Index the level's nodes: the first lane to visit a (parent, rank)
		// pair makes one, later lanes share it. Leaves are never merged:
		// lane q is leaf q.
		k := 0
		if j == 0 {
			for q := range row {
				owner[0][q], pid[q] = int32(q), cur[q]
			}
			k = P
		} else {
			table, gen := c.stamp(above*int(mr)), uint64(c.gen)
			for q, r := range row {
				key := cur[q]*mr + int32(r) - 1
				ent := table[key]
				if ent>>32 != gen {
					ent = gen<<32 | uint64(k)
					table[key] = ent
					owner[0][k], pid[k] = int32(q), cur[q]
					k++
				}
				cur[q] = int32(ent)
			}
		}
		// Write them, last first: pushing each in front of its parent's
		// children leaves every chain in lane order, headed by the node
		// of the parent's own lane.
		head := c.head[:above]
		fill(head, fresh.sib)
		for e := k - 1; e >= 0; e-- {
			q, p := int(owner[0][e]), pid[e]
			pl.nodes[j*pl.stride+q] = node{kidx: 4 * (int32(row[q]) - 1), sib: head[p]}
			head[p] = int32(q)
			if up := owner[1][p]; j == n-1 { // the lane's first node, under the root
				pl.top[q], pl.up[q] = int32(j), -1
			} else if int(up) != q { // its first node under another lane's
				pl.top[q], pl.up[q] = int32(j), up
			}
		}
		owner[0], owner[1], above = owner[1], owner[0], k
	}
}
