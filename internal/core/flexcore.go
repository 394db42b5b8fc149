package core

import (
	"fmt"
	"math"

	"flexcore/internal/cmatrix"
	"flexcore/internal/constellation"
	"flexcore/internal/detector"
)

// Options configures a FlexCore detector.
type Options struct {
	// NPE is the number of available processing elements; one sphere-
	// decoder path is evaluated per element (the paper's minimum-latency
	// allocation). Any positive value is legal — FlexCore's flexibility.
	NPE int
	// Threshold, when positive, enables a-FlexCore: pre-processing stops
	// as soon as the cumulative probability of the selected paths reaches
	// the threshold, activating only as many of the NPE elements as the
	// channel requires (the paper uses 0.95).
	Threshold float64
	// Workers is ignored: a detector is single-threaded, and parallelism
	// is one detector per goroutine (DESIGN.md §8).
	//
	// Deprecated: ignored. Declared only because the frozen bench/ still
	// sets it; it goes with that use.
	Workers int
	// StrictDeactivation reproduces the paper's §3.2 wording literally: a
	// candidate outside the constellation kills the whole path. The
	// default instead saturates the slicer per axis (the natural hardware
	// behaviour, and what the paper's reported performance is consistent
	// with); see the ablation benchmark for the measured difference.
	StrictDeactivation bool
	// ExactSlicer replaces the triangle-LUT k-th-closest lookup with the
	// true sort-based k-th closest symbol (constellation.ExactKth) — the
	// idealised detection step the paper's Fig. 6 ordering approximates.
	// Under it the rank-vector → symbol-vector map is a bijection, so
	// FlexCore with N_PE = |Q|^Nt provably equals exhaustive ML; the
	// conformance suite relies on this mode as a reference. It is much
	// slower than the LUT (it sorts |Q| distances per tree level) and is
	// meant for verification, not production detection. ExactSlicer takes
	// precedence over StrictDeactivation (exact lookups never leave the
	// constellation, so no path ever deactivates).
	ExactSlicer bool
	// PathReuse enables the coherence-aware position-vector cache: the
	// selected path set E depends only on the channel (§3.1.1), and Eq. 4
	// reads it through one value per level, real(R(l,l))·d/σ. A
	// subcarrier whose n values are bit-identical to those of its base
	// (the same subcarrier of the last frame prepared against the
	// installed ReuseState; for scalar Prepare, the previous Prepare's
	// channel) reuses E and skips the per-level model and the tree
	// search — only the QR decomposition is redone — so reuse never
	// changes an output. Re-sent static channels hit it. Hit/miss counts
	// are reported by PreprocessStats.
	PathReuse bool
	// Backend selects the hot-path arithmetic (DESIGN.md §11). The
	// default BackendComplex128 is the reference scalar arithmetic;
	// BackendSoA32 runs detection as one float32 descent of the paths'
	// prefix trie (every shared tree node decided once). Both backends
	// select the same paths; decisions match the default backend on the
	// conformance corpus; distances carry a documented ULP-scaled
	// tolerance. ExactSlicer always detects with the scalar arithmetic
	// regardless of Backend.
	Backend Backend
}

// FlexCore is the paper's detector: channel-aware path pre-selection plus
// fully parallel per-path evaluation. It implements detector.Detector and
// detector.BatchDetector.
//
// A FlexCore instance is not safe for concurrent use; run one instance
// per goroutine (they are cheap — all scratch is lazily grown and
// reused). It starts no goroutine and holds no resource to release.
type FlexCore struct {
	cons *constellation.Constellation
	opts Options
	npe  int // path bound of the next Prepare/PrepareAll: opts.NPE, or the SetPathCap below it

	qr     *cmatrix.QRResult
	set    *pathStore // the selected subcarrier's path set
	n      int
	ops    detector.OpCount
	ppOps  PreprocessStats
	fallbk int64 // detections resolved by the clamped-SIC fallback

	// Steady-state scratch, grown in Prepare and reused across
	// Detect/DetectBatch calls so the hot path is allocation-free.
	ybar []complex128 // rotated received vector
	idx  []int        // per-path candidate scratch
	sym  []complex128 // per-path symbol scratch
	best []int        // current best path (factored order)
	out  []int        // unpermuted result handed to the caller

	// Batch result arena: one flat buffer re-sliced into per-vector
	// headers each DetectBatch call.
	batchBuf []int
	batchHdr [][]int
	soft     softState // DetectSoft's arenas

	// Channel-rate scratch: the QR workspace and the pre-processing
	// pool, reused with the frame slots below so steady-state Prepare
	// performs no allocation (the paper's O(N_PE·Nt) pre-processing claim
	// held in memory traffic too, not only arithmetic).
	qrws        cmatrix.QRWorkspace
	finder      pathFinder
	scalarReuse ReuseState  // scalar Prepare's one-slot coherence base under PathReuse
	extReuse    *ReuseState // caller-owned cross-frame bases for PrepareAll (SetReuseState)

	// SoA-backend planes and scratch (Options.Backend == BackendSoA32).
	soa soaState

	// The prepared frame: per-subcarrier slots filled by PrepareAll — or
	// by Prepare or PrepareAt, as one slot — and activated by Select.
	frame []prepSlot
}

// New returns a FlexCore detector. NPE must be ≥ 1.
func New(cons *constellation.Constellation, opts Options) *FlexCore {
	if opts.NPE < 1 {
		panic("core: NPE must be ≥ 1")
	}
	return &FlexCore{cons: cons, opts: opts, npe: opts.NPE, set: new(pathStore)}
}

// Name implements detector.Detector.
func (d *FlexCore) Name() string {
	suffix := ""
	if d.opts.ExactSlicer {
		suffix = ",exact"
	}
	if d.opts.Backend != BackendComplex128 {
		suffix += "," + d.opts.Backend.String()
	}
	if d.opts.Threshold > 0 {
		return fmt.Sprintf("a-FlexCore(NPE=%d,θ=%.2f%s)", d.opts.NPE, d.opts.Threshold, suffix)
	}
	return fmt.Sprintf("FlexCore(NPE=%d%s)", d.opts.NPE, suffix)
}

// Prepare runs the channel-dependent work: the sorted QR decomposition
// (shared with any sphere decoder) and FlexCore's pre-processing tree
// search. It re-runs whenever the channel changes, as in the paper.
// Prepare is the one-subcarrier frame, selected: it replaces the
// prepared frame with a one-slot frame. All channel-rate storage (QR
// factors, model, search queues, path set) is detector-owned and
// reused, so steady-state Prepare calls are allocation-free; the slices
// returned by Paths() are valid until the next Prepare/PrepareAll call.
// With Options.PathReuse, a channel whose level key equals the previous
// Prepare's reuses its position vectors and skips the tree search
// entirely — the detector's own base, never a ReuseState's.
//
//flexcore:noalloc
func (d *FlexCore) Prepare(h *cmatrix.Matrix, sigma2 float64) error {
	hs := [1]*cmatrix.Matrix{h}
	if err := d.prepareFrame(hs[:], sigma2, &d.scalarReuse); err != nil {
		return err
	}
	return d.Select(0)
}

// SetReuseState installs (or, with nil, removes) an externally-owned
// cross-frame coherence base for PrepareAll: with Options.PathReuse
// enabled, each subcarrier of a prepared frame tests the state's base
// for the same subcarrier, and a miss re-bases it on the frame's search.
// The caller keys the state however it likes — the serving layer
// installs one per user before each frame, so a user's static channel
// skips the candidate-position search across frames. It has no effect
// on scalar Prepare (which keeps its own one-subcarrier base) or when
// PathReuse is disabled. Frames prepared against st detect out of its
// storage: each is valid until st is next prepared against or Reset
// (ReuseState).
//
//flexcore:noalloc
func (d *FlexCore) SetReuseState(st *ReuseState) { d.extReuse = st }

// SetPathCap bounds the path sets of the following Prepare/PrepareAll
// calls at k processing elements — FlexCore's flexibility as a per-frame
// knob: until the cap is lifted (k = 0, or any k ≥ Options.NPE) they
// select, count and detect exactly as a detector built with
// Options.NPE = k would. The set for k elements is the first k paths of
// the set for more (FindPaths), so with PathReuse a base of the same key
// searched under a bound ≥ k — or one that stopped short of its bound —
// serves the cap by prefix, descent plan included, and skips the search;
// a base cut at a smaller bound does not cover k and is a miss. The
// channel already prepared is not re-selected.
//
//flexcore:noalloc
func (d *FlexCore) SetPathCap(k int) {
	d.npe = d.opts.NPE
	if 0 < k && k < d.npe {
		d.npe = k
	}
}

// ActivePaths returns the number of processing elements activated for the
// current channel (< NPE only for a-FlexCore).
//
//flexcore:noalloc
func (d *FlexCore) ActivePaths() int { return len(d.set.logP) }

// Paths returns the selected position vectors (descending Pc), valid
// until the next Prepare/PrepareAll call.
func (d *FlexCore) Paths() []Path { return d.set.view() }

// PreprocessStats returns cumulative pre-processing work counters.
func (d *FlexCore) PreprocessStats() PreprocessStats { return d.ppOps }

// FallbackDetections returns how many detections were resolved by the
// clamped-SIC fallback because every selected path deactivated.
func (d *FlexCore) FallbackDetections() int64 { return d.fallbk }

// Options returns the options d was built with.
func (d *FlexCore) Options() Options { return d.opts }

// Helper returns a new detector that prepares and detects any part of a
// frame as d would — d's constellation, Options and the path cap in
// force — so that part can run on another goroutine. A subcarrier's
// path set, decisions and counters depend on no other subcarrier, so a
// frame split over helpers (PrepareAt) reads as one run by d once Fold
// has returned their counters. A later SetPathCap on d is not the
// helper's: cap it too.
func (d *FlexCore) Helper() *FlexCore {
	h := New(d.cons, d.opts)
	h.npe = d.npe
	return h
}

// Fold moves a helper's counters into d: OpCount, PreprocessStats and
// FallbackDetections are all counters, so they add up, and helpers fold
// in any order. h's counters restart from zero.
//
//flexcore:noalloc
func (d *FlexCore) Fold(h *FlexCore) {
	d.ops.Add(h.ops)
	d.ppOps.Add(h.ppOps)
	d.fallbk += h.fallbk
	h.ops, h.ppOps, h.fallbk = detector.OpCount{}, PreprocessStats{}, 0
}

// ensureScratch grows the detector-owned scratch to the current stream
// count; it only allocates when n grows, keeping Detect allocation-free
// in steady state.
func (d *FlexCore) ensureScratch() {
	if cap(d.idx) < d.n {
		d.idx = make([]int, d.n)
		d.sym = make([]complex128, d.n)
		d.best = make([]int, d.n)
		d.out = make([]int, d.n)
		d.ybar = make([]complex128, d.n)
	}
	d.idx = d.idx[:d.n]
	d.sym = d.sym[:d.n]
	d.best = d.best[:d.n]
	d.out = d.out[:d.n]
	d.ybar = d.ybar[:d.n]
}

// evalPath walks one tree path: at each level it cancels the decided
// interference, forms the effective received point (Eq. 5) and picks the
// rank[i]-th closest symbol through the predefined ordering, writing the
// candidate into idx/sym. A candidate outside the constellation
// saturates the slicer per axis (default) or deactivates the whole path
// (StrictDeactivation, the paper's literal §3.2 wording), reported by
// ok = false. So does a path that cannot improve on bound: partial
// distances only grow, so the walk stops at the first level where
// ped ≥ bound — an equal distance never replaces the incumbent.
//
//flexcore:noalloc
func (d *FlexCore) evalPath(ybar []complex128, ranks []int, idx []int, sym []complex128, bound float64) (ped float64, ok bool) {
	for i := d.n - 1; i >= 0; i-- {
		b := cmatrix.CancelRow(d.qr.R, ybar, sym, i)
		rii := real(d.qr.R.At(i, i))
		if rii <= 0 {
			return 0, false
		}
		z := b / complex(rii, 0)
		var k int
		if d.opts.ExactSlicer {
			k = d.cons.ExactKth(z, ranks[i])
		} else if d.opts.StrictDeactivation {
			var kok bool
			k, kok = d.cons.KthClosest(z, ranks[i])
			if !kok {
				return 0, false
			}
		} else {
			k, _ = d.cons.KthClosestClamped(z, ranks[i])
		}
		idx[i] = k
		q := d.cons.Point(k)
		sym[i] = q
		ped += cmatrix.PEDIncrement(b, rii, q)
		if ped >= bound {
			return ped, false
		}
	}
	return ped, true
}

// countDetections accumulates the operation counters for detecting
// `vectors` received vectors of length ylen under the current Prepare.
// The per-path term is the paper's per-processing-element cost — what
// N_PE independent elements execute, the hardware model behind Table 1
// and Fig. 10 — on every backend, although the SoA trie descent shares
// tree nodes between paths and both backends stop a path at the bound
// an independent element cannot see, and so execute fewer (DESIGN §11.2).
//
//flexcore:noalloc
func (d *FlexCore) countDetections(vectors, ylen int) {
	d.ops.Detections += int64(vectors)
	// ȳ rotation plus per-path cost: Σ_i [4(n−1−i) + 4 + 2] real muls.
	perPath := int64(2*d.n*(d.n-1) + 6*d.n)
	P := int64(d.ActivePaths())
	muls := (int64(4*ylen*d.n) + perPath*P) * int64(vectors)
	d.ops.RealMuls += muls
	d.ops.FLOPs += 2 * muls
	d.ops.Nodes += P * int64(d.n) * int64(vectors)
}

// Detect implements detector.Detector: it evaluates every selected path
// (one per processing element) and returns the path with the minimum
// Euclidean distance, falling back to a clamped SIC pass when every path
// deactivates. The returned slice is owned by the detector and valid
// until its next Detect/DetectBatch call; copy it to retain.
//
//flexcore:noalloc
func (d *FlexCore) Detect(y []complex128) []int {
	d.countDetections(1, len(y))
	d.detectInto(y, d.out)
	return d.out
}

// DetectBatch implements detector.BatchDetector: it detects a whole
// burst of received vectors under the current Prepare, one after the
// other on the caller with the detector's own scratch. Results live in a
// reused arena, valid until the next Detect/DetectBatch call.
//
// A nil or empty burst returns nil without counting detections; the
// arena regrows transparently for bursts larger than any seen before.
//
//flexcore:noalloc
func (d *FlexCore) DetectBatch(ys [][]complex128) [][]int {
	if len(ys) == 0 {
		return nil
	}
	d.countDetections(len(ys), len(ys[0]))
	out := d.batchSlots(len(ys))
	for i, y := range ys {
		d.detectInto(y, out[i])
	}
	return out
}

// detectInto detects one vector on the active backend, writing the
// unpermuted result into out.
//
//flexcore:noalloc
func (d *FlexCore) detectInto(y []complex128, out []int) {
	if d.useSoA() {
		d.soaDetectOne(y, out)
	} else {
		d.detectOne(y, out)
	}
}

// batchSlots re-slices the batch arena into m result slots of n streams.
func (d *FlexCore) batchSlots(m int) [][]int {
	if cap(d.batchHdr) < m {
		d.batchHdr = make([][]int, m)
	}
	d.batchHdr = d.batchHdr[:m]
	if len(d.batchBuf) < m*d.n {
		d.batchBuf = make([]int, m*d.n)
	}
	for i := 0; i < m; i++ {
		d.batchHdr[i] = d.batchBuf[i*d.n : (i+1)*d.n : (i+1)*d.n]
	}
	return d.batchHdr
}

// detectOne runs one full scalar detection and writes the unpermuted
// result into out.
//
//flexcore:noalloc
func (d *FlexCore) detectOne(y []complex128, out []int) {
	idx, sym, best := d.idx, d.sym, d.best
	yb := d.qr.YbarInto(y, d.ybar)
	bestPed := math.Inf(1)
	found := false
	for _, p := range d.set.view() {
		ped, ok := d.evalPath(yb, p.Ranks, idx, sym, bestPed)
		if ok && ped < bestPed {
			bestPed, found = ped, true
			copy(best, idx)
		}
	}
	if !found {
		best = d.fallback(yb)
	}
	d.qr.UnpermuteIntsInto(best, out)
}

// Close does nothing: a detector holds no resource.
//
// Deprecated: no-op. Declared only because the frozen bench/ still
// calls it; it goes with those calls.
func (d *FlexCore) Close() {}

// fallback resolves a vector every selected path deactivated on, for
// every detection entry point, and counts it in FallbackDetections: a
// rank-one descent using the exact slicer (which clamps to the
// constellation and never deactivates). The decision is written into
// the detector's idx/sym scratch and returned in factored order.
//
//flexcore:noalloc
func (d *FlexCore) fallback(ybar []complex128) []int {
	d.fallbk++
	idx, sym := d.idx, d.sym
	for i := d.n - 1; i >= 0; i-- {
		b := cmatrix.CancelRow(d.qr.R, ybar, sym, i)
		rii := real(d.qr.R.At(i, i))
		var z complex128
		if rii > 0 {
			z = b / complex(rii, 0)
		}
		idx[i] = d.cons.Slice(z)
		sym[i] = d.cons.Point(idx[i])
	}
	return idx
}

// OpCount implements detector.Detector.
func (d *FlexCore) OpCount() detector.OpCount { return d.ops }
