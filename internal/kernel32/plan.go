package kernel32

// Plan is a path set compiled for descent: the prefix trie of its rank
// vectors. A node at level j stands for one distinct rank suffix
// ranks[j..N−1]; every selected path that shares the suffix shares the
// node, so Descend slices it — and cancels its symbol — once instead of
// once per path. Level 0 is the exception: it keeps exactly one leaf
// per lane, in lane order, so a descent's result is a lane index and
// duplicate paths stay distinct lanes.
//
// Nodes are stored by depth (depth t holds level N−t; depth 0 is the
// root, node 0), each with level-local links — its parent in the depth
// above, its first child in the depth below, its next sibling in its
// own depth — and the slicer table offset of its rank. Every builder
// adds a level's nodes in first-visit lane order, so a sibling chain
// runs in increasing position and a node's first child is the one its
// lowest lane walks. A Plan depends on the rank vectors only — never on
// the channel or the received signal — so it belongs to whoever owns
// the path set: internal/core builds one per fresh path search and
// copies or aliases it wherever it copies or aliases the paths. It is
// read-only once compiled and safe to share between descents.
type Plan struct {
	N int // tree levels
	P int // lanes (selected paths)

	start []int32 // N+2: depth t's nodes are [start[t], start[t+1])
	nodes []node
}

// node is one trie node as Descend reads it. All links are positions
// within a depth, −1 for none.
type node struct {
	parent int32 // the parent's position within the depth above
	kidx   int32 // 4·(rank−1): the rank's row of Slicer32.off
	kid    int32 // the first child's position within the depth below
	sib    int32 // the next sibling's position within this depth
}

// Nodes returns the number of distinct tree nodes a descent of the plan
// slices (the root excluded): N·P when no two paths share a suffix,
// far fewer for a best-first path set.
func (pl *Plan) Nodes() int {
	if len(pl.start) == 0 {
		return 0
	}
	return int(pl.start[pl.N+1]) - 1
}

// CopyPrefix makes pl a deep copy of the plan of src's first k lanes
// (all of src when k ≥ src.P), growing pl's arenas only past their
// high-water mark. Every builder adds a level's nodes in first-visit
// lane order, so the nodes the first k lanes walk are a prefix of every
// level and the result is, node for node, the plan compiled from those
// lanes alone. The prefix lengths fall out bottom-up from the parent
// links: k leaves, and above a level one more node than the largest
// parent position its prefix refers to. A sibling chain is cut where it
// leaves its depth's prefix; a first child never is, since the lowest
// lane through a node is the one that created its first child.
//
//flexcore:noalloc
func (pl *Plan) CopyPrefix(src *Plan, k int) {
	pl.N, pl.P = src.N, src.P
	pl.start = append(pl.start[:0], src.start...) //lint:ignore noalloc amortised: plan arenas regrow only past their high-water mark
	pl.nodes = append(pl.nodes[:0], src.nodes...) //lint:ignore noalloc amortised: see above
	if k >= src.P {
		return
	}
	n := src.N
	pl.P = k
	// Lengths first, parked in start[t+1] until the packing pass turns
	// them into offsets.
	c := k
	for t := n; t >= 1; t-- {
		pl.start[t+1] = int32(c)
		up := int32(0)
		for _, v := range src.nodes[src.start[t]:][:c] {
			up = max(up, v.parent)
		}
		c = int(up) + 1
	}
	for t := 1; t <= n; t++ {
		c := pl.start[t+1]
		dst := pl.nodes[pl.start[t]:][:c]
		copy(dst, src.nodes[src.start[t]:][:c])
		for i := range dst {
			if dst[i].sib >= c {
				dst[i].sib = -1
			}
		}
		pl.start[t+1] = pl.start[t] + c
	}
	pl.nodes = pl.nodes[:pl.start[n+1]]
}

// Compiler builds Plans. A path search that knows how its paths derive
// from one another adds the trie's nodes directly (Begin, Extend,
// Finish); anyone else stages a rank plane and lets Compile find the
// shared suffixes and link them (Ranks, Compile). It owns the build
// arenas and the compile scratch, so one Compiler serves any number of
// sequential builds without allocating once its shapes settle. It is
// not safe for concurrent use.
type Compiler struct {
	n, p int
	lvl  []node  // build arena, level j's nodes at [j*p, j*p+cnt[j]); the root at n*p
	cnt  []int32 // nodes added per level

	ranks []int16  // level-major n×p staging plane: ranks[i*p+lane]
	cur   []int32  // per lane: its node within the level above
	table []uint64 // (parent, rank) → stamp<<32 | node, see Compile
	gen   uint32   // stamp of the level being compiled
}

// Begin starts a plan of n levels with at most p nodes per level.
//
//flexcore:noalloc
func (c *Compiler) Begin(n, p int) {
	c.n, c.p = n, p
	if cap(c.lvl) < n*p+1 {
		c.lvl = make([]node, n*p+1) //lint:ignore noalloc amortised: the build arena regrows only when paths×levels grows
	}
	if cap(c.cnt) < n {
		c.cnt = make([]int32, n) //lint:ignore noalloc amortised: see above
	}
	c.lvl = c.lvl[:n*p+1]
	c.cnt = c.cnt[:n]
	clear(c.cnt)
	c.lvl[n*p] = node{kid: -1, sib: -1}
}

// add appends a node to level j — the child, by the 1-based slicer
// rank, of node parent of level j+1 (0 at the top level: the root) —
// and returns its position within the level. Its links are left for
// Compile's linking pass.
//
//flexcore:noalloc
func (c *Compiler) add(j int, parent int32, rank int) int32 {
	e := c.cnt[j]
	c.cnt[j] = e + 1
	c.lvl[j*c.p+int(e)] = node{parent, 4 * (int32(rank) - 1), -1, -1}
	return e
}

// Extend adds a chain of new nodes from level w = len(ranks)−1 down to
// a leaf: level w's node, the child of node up of level w+1 (0 at the
// top level: the root) appended after its current last child prev (−1
// when it has none), and below it at every level j the first child of
// the node just added, each of rank ranks[j]. It writes the chain's
// positions to nodes[j]. This is the whole of a best-first search's
// trie growth: a path derived from an earlier one by incrementing level
// w shares the earlier path's nodes above w and is new from w down.
//
//flexcore:noalloc
func (c *Compiler) Extend(up, prev int32, ranks []int, nodes []int32) {
	lvl, p := c.lvl, c.p
	w := len(ranks) - 1
	cnt, nodes := c.cnt[:w+1], nodes[:w+1]
	e := cnt[w]
	if prev < 0 {
		lvl[(w+1)*p+int(up)].kid = e
	} else {
		lvl[w*p+int(prev)].sib = e
	}
	for j := w; j >= 0; j-- {
		kid := int32(-1)
		if j > 0 {
			kid = cnt[j-1] // the next node of the level below is this one's child
		}
		cnt[j] = e + 1
		lvl[j*p+int(e)] = node{up, 4 * (int32(ranks[j]) - 1), kid, -1}
		nodes[j], up, e = e, e, kid
	}
}

// Finish packs the nodes added since Begin into pl, top level first.
//
//flexcore:noalloc
func (c *Compiler) Finish(pl *Plan) {
	n := c.n
	pl.N, pl.P = n, int(c.cnt[0])
	total := 1 // node 0 is the root: no parent, no rank, distance 0
	for _, k := range c.cnt {
		total += int(k)
	}
	if cap(pl.start) < n+2 {
		pl.start = make([]int32, n+2) //lint:ignore noalloc amortised: plan arenas regrow only past their high-water mark
	}
	if cap(pl.nodes) < total {
		pl.nodes = make([]node, total) //lint:ignore noalloc amortised: see above
	}
	pl.start = pl.start[:n+2]
	pl.nodes = pl.nodes[:total]
	pl.start[0], pl.start[1], pl.nodes[0] = 0, 1, c.lvl[n*c.p]
	at := 1
	for t := 1; t <= n; t++ {
		j := n - t
		k := int(c.cnt[j])
		copy(pl.nodes[at:at+k], c.lvl[j*c.p:])
		at += k
		pl.start[t+1] = int32(at)
	}
}

// Ranks sizes the staging plane for n levels × p lanes and returns it
// for the caller to fill level-major (ranks[i*p+lane] = the lane's
// 1-based rank at level i) before Compile.
//
//flexcore:noalloc
func (c *Compiler) Ranks(n, p int) []int16 {
	if cap(c.ranks) < n*p {
		c.ranks = make([]int16, n*p) //lint:ignore noalloc amortised: the staging plane regrows only when paths×levels grows
	}
	c.n, c.p = n, p
	c.ranks = c.ranks[:n*p]
	return c.ranks
}

// Compile builds the prefix trie of the staged rank plane into pl. Any
// plane of ranks ≥ 1 is accepted — not only the down-sets the best-first
// search emits: duplicate lanes, a lone lane, a single level.
//
// One pass per level, top down: a lane's node at level j is identified
// by (its node at level j+1, its rank at j), looked up in a direct-
// address table of nodes(j+1) × maxRank entries. The table is never
// cleared between levels or compiles: every level writes its entries
// under a fresh stamp and believes only entries carrying it, so stale
// contents are harmless and the whole compile is O(N·P).
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
	c.Begin(n, P)
	if cap(c.cur) < P {
		c.cur = make([]int32, P) //lint:ignore noalloc amortised: lane scratch regrows only when the path count grows
	}
	cur := c.cur[:P]
	clear(cur) // every lane starts under the root
	pcnt := 1  // nodes of the level above: the root
	for j := n - 1; j >= 0; j-- {
		row := c.ranks[j*P : (j+1)*P]
		if j == 0 {
			// Leaves are never merged: lane p is leaf p.
			for p, r := range row {
				c.add(0, cur[p], int(r))
			}
			break
		}
		size := pcnt * int(mr)
		if cap(c.table) < size {
			c.table = make([]uint64, size, 2*size) //lint:ignore noalloc amortised: the table regrows only past its high-water mark
			c.gen = 0
		}
		if c.gen++; c.gen == 0 { // stamp wrapped: old entries could pass for new
			clear(c.table[:cap(c.table)])
			c.gen = 1
		}
		table, stamp := c.table[:size], uint64(c.gen)<<32
		for p, r := range row {
			key := cur[p]*mr + int32(r) - 1
			ent := table[key]
			e := int32(ent)
			if ent>>32 != uint64(c.gen) {
				e = c.add(j, cur[p], int(r))
				table[key] = stamp | uint64(e)
			}
			cur[p] = e
		}
		pcnt = int(c.cnt[j])
	}
	// Link every level into its parents' child lists: scanning a level
	// backwards and pushing each node in front of its parent's first
	// child leaves the lists in creation order.
	for j := 0; j < n; j++ {
		kids, ups := c.lvl[j*P:][:c.cnt[j]], c.lvl[(j+1)*P:]
		for e := len(kids) - 1; e >= 0; e-- {
			up := &ups[kids[e].parent]
			kids[e].sib, up.kid = up.kid, int32(e)
		}
	}
	c.Finish(pl)
}
