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
//	Plan     per path set: the trie — one node per distinct rank suffix,
//	         one leaf per path (a "lane"), parent, first-child and
//	         next-sibling links — built once per path search by a
//	         Compiler and shared read-only from then on
//	Scratch  per descent: ȳ, the per-node distances and decisions, and
//	         the walk's stack: one node, one partial distance and one
//	         cancellation row-vector per depth
//
// One Descend call walks the trie depth first and decides each distinct
// node at most once — a branch-free integer slicer step, then, before
// stepping into the node's children, the decided symbol is cancelled
// out of every lower row in push form so they read their observation
// directly — and skips every subtree whose partial distance already
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
