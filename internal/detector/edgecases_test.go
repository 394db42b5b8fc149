package detector

import (
	"testing"

	"flexcore/internal/channel"
	"flexcore/internal/cmatrix"
	"flexcore/internal/constellation"
)

// TestDetectorsSurviveZeroChannel injects an all-zero channel: linear
// detectors must report the singularity, tree-search detectors must
// terminate and return *some* valid symbol vector (garbage is fine,
// hangs and panics are not).
func TestDetectorsSurviveZeroChannel(t *testing.T) {
	cons := constellation.MustNew(16)
	h := cmatrix.New(4, 4)
	y := []complex128{1, -1, 0.5, 0.25i}

	if err := NewZF(cons).Prepare(h, 0.1); err == nil {
		t.Fatal("ZF accepted a singular channel")
	}
	// MMSE is regularised and must survive.
	mm := NewMMSE(cons)
	if err := mm.Prepare(h, 0.1); err != nil {
		t.Fatalf("MMSE rejected a singular channel: %v", err)
	}
	checkOut(t, "MMSE", mm.Detect(y), 4, cons.Size())

	for _, det := range []Detector{NewSIC(cons), NewSphere(cons), NewFCSD(cons, 1), NewTrellis(cons)} {
		if err := det.Prepare(h, 0.1); err != nil {
			t.Fatalf("%s rejected the zero channel: %v", det.Name(), err)
		}
		checkOut(t, det.Name(), det.Detect(y), 4, cons.Size())
	}
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
	for _, det := range []Detector{NewMMSE(cons), NewSIC(cons), NewSphere(cons), NewFCSD(cons, 1), NewTrellis(cons)} {
		if err := det.Prepare(h, 0.1); err != nil {
			t.Fatalf("%s rejected the rank-deficient channel: %v", det.Name(), err)
		}
		checkOut(t, det.Name(), det.Detect(y), 4, cons.Size())
	}
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
	for _, det := range allDetectors(cons) {
		if err := det.Prepare(h, 0.1); err != nil {
			t.Fatal(err)
		}
		checkOut(t, det.Name(), det.Detect(y), 6, cons.Size())
	}
}

func checkOut(t *testing.T, name string, got []int, n, m int) {
	t.Helper()
	if len(got) != n {
		t.Fatalf("%s: output length %d", name, len(got))
	}
	for i, v := range got {
		if v < 0 || v >= m {
			t.Fatalf("%s: symbol index %d out of range at stream %d", name, v, i)
		}
	}
}
