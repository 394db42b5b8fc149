package detector

import "flexcore/internal/cmatrix"

// BatchDetector is a Detector with an amortised multi-vector entry point.
// One DetectBatch call detects a whole burst of received vectors (for
// example every OFDM symbol of a packet on one subcarrier) under the
// current Prepare, letting implementations pay fan-out and scheduling
// costs once per burst instead of once per vector — the batch-level
// parallelism large-MIMO detectors get their throughput numbers from.
type BatchDetector interface {
	Detector
	// DetectBatch detects every vector of ys under the current Prepare
	// and returns one per-stream index slice per vector, in order. The
	// returned slices are owned by the detector and remain valid only
	// until its next Detect/DetectBatch call; callers must copy to
	// retain. All vectors must have the same length (the receive
	// antenna count of the prepared channel).
	//
	// Edge cases, pinned by the conformance suite: a nil or empty burst
	// returns an empty result without counting detections or panicking;
	// a burst of one is detected exactly like a single Detect; bursts
	// may grow or shrink freely between calls (implementations regrow
	// their arenas transparently); and implementations with a Close
	// method treat it as a quiescing point, not a terminal state — a
	// later DetectBatch restarts any released resources on demand.
	DetectBatch(ys [][]complex128) [][]int
}

// Batch adapts any Detector to a BatchDetector. Detectors with a native
// batch implementation are returned as-is; every other detector is
// wrapped in a sequential loop adapter that copies each Detect result
// into a reused arena, so the returned slices follow the same
// valid-until-next-call ownership contract as native implementations.
func Batch(d Detector) BatchDetector {
	if b, ok := d.(BatchDetector); ok {
		return b
	}
	return &loopBatch{d: d}
}

// loopBatch is the generic DetectBatch adapter: a plain loop over Detect
// with arena-backed result storage (zero steady-state allocations beyond
// whatever the wrapped detector's Detect itself allocates).
type loopBatch struct {
	d   Detector
	buf []int   // flat arena backing the result slices
	out [][]int // reused headers into buf
}

func (l *loopBatch) Name() string { return l.d.Name() }

func (l *loopBatch) Prepare(h *cmatrix.Matrix, sigma2 float64) error {
	return l.d.Prepare(h, sigma2)
}

func (l *loopBatch) Detect(y []complex128) []int { return l.d.Detect(y) }

func (l *loopBatch) OpCount() OpCount { return l.d.OpCount() }

// Unwrap exposes the adapted detector (for optional-interface probing).
func (l *loopBatch) Unwrap() Detector { return l.d }

func (l *loopBatch) DetectBatch(ys [][]complex128) [][]int {
	if cap(l.out) < len(ys) {
		l.out = make([][]int, len(ys))
	}
	l.out = l.out[:len(ys)]
	for i, y := range ys {
		got := l.d.Detect(y)
		if i == 0 {
			// Streams per vector are fixed for one Prepare; size the
			// arena off the first result.
			if need := len(got) * len(ys); len(l.buf) < need {
				l.buf = make([]int, need)
			}
		}
		dst := l.buf[i*len(got) : (i+1)*len(got) : (i+1)*len(got)]
		copy(dst, got)
		l.out[i] = dst
	}
	return l.out
}
