package core

import (
	"math"
	"testing"

	"flexcore/internal/channel"
	"flexcore/internal/cmatrix"
	"flexcore/internal/constellation"
)

func diagMatrix(d []float64) *cmatrix.Matrix {
	m := cmatrix.New(len(d), len(d))
	for i, v := range d {
		m.Set(i, i, complex(v, 0))
	}
	return m
}

func TestModelPeMonotoneInChannelGain(t *testing.T) {
	cons := constellation.MustNew(16)
	m := NewModel(diagMatrix([]float64{0.2, 1.0, 3.0}), 0.1, cons)
	if !(m.Pe[0] > m.Pe[1] && m.Pe[1] > m.Pe[2]) {
		t.Fatalf("Pe not decreasing in R(l,l): %v", m.Pe)
	}
}

func TestModelPeMonotoneInSNR(t *testing.T) {
	cons := constellation.MustNew(64)
	r := diagMatrix([]float64{1, 1})
	low := NewModel(r, channel.Sigma2FromSNRdB(10, 1), cons)
	high := NewModel(r, channel.Sigma2FromSNRdB(25, 1), cons)
	if low.Pe[0] <= high.Pe[0] {
		t.Fatalf("Pe should shrink with SNR: %v vs %v", low.Pe[0], high.Pe[0])
	}
}

func TestModelPeClamped(t *testing.T) {
	cons := constellation.MustNew(16)
	// NewModel accepts any R: a negative diagonal with level key
	// a = −0.3 gives the raw Pe 1 − (1 − (3/4)·erfc(a))² ≈ 0.9999875,
	// above peMax, so the upper clamp must hold it at peMax.
	m := NewModel(diagMatrix([]float64{-0.3 / cons.Scale()}), 1, cons)
	if m.Pe[0] != peMax {
		t.Fatalf("Pe not clamped to peMax = %v: %v", peMax, m.Pe[0])
	}
	// Negligible noise → clamped above zero so logs stay finite.
	m = NewModel(diagMatrix([]float64{1e6}), 1e-9, cons)
	if m.Pe[0] <= 0 || math.IsInf(m.logPe[0], 0) {
		t.Fatalf("Pe lower clamp broken: %v", m.Pe[0])
	}
}

func TestLevelProbGeometricAndNormalised(t *testing.T) {
	cons := constellation.MustNew(16)
	m := NewModel(diagMatrix([]float64{0.8, 1.3}), 0.15, cons)
	for i := 0; i < 2; i++ {
		// Geometric decay with ratio Pe.
		for k := 1; k < 8; k++ {
			r := m.LevelProb(i, k+1) / m.LevelProb(i, k)
			if math.Abs(r-m.Pe[i]) > 1e-12 {
				t.Fatalf("level %d: ratio %v != Pe %v", i, r, m.Pe[i])
			}
		}
		// Infinite-rank sum is 1; the first |Q| ranks carry almost all of it.
		var sum float64
		for k := 1; k <= cons.Size(); k++ {
			sum += m.LevelProb(i, k)
		}
		if sum > 1+1e-9 || sum < 0.9 {
			t.Fatalf("level %d: truncated sum %v", i, sum)
		}
	}
}

func TestPathLogPConsistency(t *testing.T) {
	cons := constellation.MustNew(16)
	m := NewModel(diagMatrix([]float64{0.8, 1.3, 0.5}), 0.2, cons)
	if math.Abs(m.PathLogP([]int{1, 1, 1})-m.RootLogP()) > 1e-12 {
		t.Fatal("root log-probability inconsistent")
	}
	// Pc(p) must equal the product of level probabilities (Eq. 2).
	ranks := []int{3, 1, 2}
	want := math.Log(m.LevelProb(0, 3) * m.LevelProb(1, 1) * m.LevelProb(2, 2))
	if got := m.PathLogP(ranks); math.Abs(got-want) > 1e-9 {
		t.Fatalf("PathLogP %v, want %v", got, want)
	}
}

func TestPathLogPLengthPanics(t *testing.T) {
	cons := constellation.MustNew(4)
	m := NewModel(diagMatrix([]float64{1, 1}), 0.1, cons)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on wrong rank length")
		}
	}()
	m.PathLogP([]int{1})
}
