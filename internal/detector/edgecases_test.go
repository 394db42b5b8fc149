package detector_test

import (
	"testing"

	"flexcore/internal/channel"
	"flexcore/internal/cmatrix"
	"flexcore/internal/constellation"
	"flexcore/internal/core"
	"flexcore/internal/detector"
)

// hostileDetectors builds every detector the edge cases hold: the
// package's own and FlexCore — single-path (ordered SIC) and many-path —
// on both backends.
func hostileDetectors(cons *constellation.Constellation) []detector.Detector {
	dets := []detector.Detector{
		detector.NewMMSE(cons),
		detector.NewSphere(cons),
		detector.NewFCSD(cons, 1),
		detector.NewTrellis(cons),
	}
	for _, b := range []core.Backend{core.BackendComplex128, core.BackendSoA32} {
		for _, npe := range []int{1, 16} {
			dets = append(dets, core.New(cons, core.Options{NPE: npe, Backend: b}))
		}
	}
	return dets
}

// TestDetectorsSurviveZeroChannel injects an all-zero channel: MMSE is
// regularised and tree-search detectors must terminate; every detector
// must accept the channel and return *some* valid symbol vector
// (garbage is fine, hangs and panics are not).
func TestDetectorsSurviveZeroChannel(t *testing.T) {
	cons := constellation.MustNew(16)
	h := cmatrix.New(4, 4)
	y := []complex128{1, -1, 0.5, 0.25i}
	survive(t, hostileDetectors(cons), h, y, cons.Size())
}

// TestDetectorsSurviveRankDeficientChannel repeats with two identical
// user columns (rank deficiency without being all-zero).
func TestDetectorsSurviveRankDeficientChannel(t *testing.T) {
	rng := channel.NewRNG(601)
	cons := constellation.MustNew(16)
	h := channel.Rayleigh(rng, 4, 4)
	for i := 0; i < 4; i++ {
		h.Set(i, 1, h.At(i, 0))
	}
	y := h.MulVec([]complex128{0.3, -0.3, 0.1i, 0.2})
	survive(t, hostileDetectors(cons), h, y, cons.Size())
}

// TestDetectorsHugeReceiveVector stresses the numeric range: a received
// vector far outside any plausible constellation image must not panic
// or produce out-of-range indices.
func TestDetectorsHugeReceiveVector(t *testing.T) {
	rng := channel.NewRNG(602)
	cons := constellation.MustNew(64)
	h := channel.Rayleigh(rng, 6, 6)
	y := make([]complex128, 6)
	for i := range y {
		y[i] = complex(1e6, -1e6)
	}
	survive(t, hostileDetectors(cons), h, y, cons.Size())
}

// survive prepares every detector on h and checks that detecting y
// yields one in-range symbol index per stream.
func survive(t *testing.T, dets []detector.Detector, h *cmatrix.Matrix, y []complex128, m int) {
	t.Helper()
	for _, det := range dets {
		if err := det.Prepare(h, 0.1); err != nil {
			t.Fatalf("%s rejected the channel: %v", det.Name(), err)
		}
		got := det.Detect(y)
		if len(got) != h.Cols {
			t.Fatalf("%s: output length %d", det.Name(), len(got))
		}
		for i, v := range got {
			if v < 0 || v >= m {
				t.Fatalf("%s: symbol index %d out of range at stream %d", det.Name(), v, i)
			}
		}
	}
}
