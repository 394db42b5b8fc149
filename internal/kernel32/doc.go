// Package kernel32 holds the float32 kernels of the reduced-precision
// detection backend (DESIGN.md §11).
//
// The complex128 hot path evaluates one sphere-decoder path at a time:
// N_PE independent walks down the tree, as the paper's processing
// elements do in parallel. Run one after another on a CPU, those walks
// recompute every tree node that several selected paths share — and a
// best-first path set shares most of them. This package descends the
// prefix trie of the selected rank vectors instead:
//
//	Prep     per channel: R as float32 planes, the diagonal, and the
//	         per-level reciprocal W that replaces the complex division
//	Plan     per path set: the trie indexed by lane — one node per
//	         distinct rank suffix, owned by the lowest lane through it,
//	         one leaf per path (a "lane"); per node its rank and next
//	         sibling; only nodes are stored: the leaves by lane, and
//	         each lane's inner nodes one run, the runs in lane order —
//	         written by the path search as it emits (Begin, Branch), or
//	         compiled from a rank plane (Compiler), and shared read-only
//	         from then on
//	Scratch  per descent: ȳ, the per-node distances and decisions, and
//	         the walk's stack: per depth one node's lane, its partial
//	         distance, its children's shared slicer row and its
//	         cancellation rows
//
// One Descend call walks the trie depth first and decides each distinct
// node at most once — the rank half of a branch-free integer slicer
// step; stepping into its children, the walk cancels the decided symbol
// out of every lower row in push form and slices their shared row half
// once — and skips every subtree whose partial distance already
// exceeds the best leaf completed so far.
//
// Numerics: float32 arithmetic makes distances (not decisions) the
// approximate quantity. The conformance contract (internal/conformance)
// therefore gates decisions exactly — the golden corpus and the seeded
// backend-equivalence corpus must produce identical symbol vectors —
// while distances carry a documented ULP-scaled tolerance. Fused
// multiply-add contraction means float32 results may differ across
// architectures at ulp level; decisions, not bits, are the contract.
package kernel32
