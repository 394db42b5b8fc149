package channel

import (
	"math"
	"math/cmplx"
	"testing"

	"flexcore/internal/cmatrix"
)

func TestCNStatistics(t *testing.T) {
	rng := NewRNG(71)
	const n = 200000
	var mean complex128
	var power float64
	for i := 0; i < n; i++ {
		x := CN(rng, 2.0)
		mean += x
		power += real(x)*real(x) + imag(x)*imag(x)
	}
	mean /= complex(n, 0)
	power /= n
	if cmplx.Abs(mean) > 0.02 {
		t.Fatalf("CN mean %v not ≈ 0", mean)
	}
	if math.Abs(power-2.0) > 0.05 {
		t.Fatalf("CN power %v not ≈ 2", power)
	}
}

func TestRayleighUnitVariance(t *testing.T) {
	rng := NewRNG(72)
	var power float64
	const trials = 500
	for i := 0; i < trials; i++ {
		h := Rayleigh(rng, 8, 8)
		f := h.FrobeniusNorm()
		power += f * f / 64
	}
	power /= trials
	if math.Abs(power-1) > 0.05 {
		t.Fatalf("Rayleigh per-entry power %v not ≈ 1", power)
	}
}

func TestCorrelatedRayleighRowCorrelation(t *testing.T) {
	rng := NewRNG(73)
	const rho = 0.8
	var c01, p0 float64
	const trials = 4000
	for i := 0; i < trials; i++ {
		h, err := CorrelatedRayleigh(rng, 4, 1, rho)
		if err != nil {
			t.Fatal(err)
		}
		a, b := h.At(0, 0), h.At(1, 0)
		c01 += real(a * cmplx.Conj(b))
		p0 += real(a * cmplx.Conj(a))
	}
	got := c01 / p0
	if math.Abs(got-rho) > 0.05 {
		t.Fatalf("adjacent-antenna correlation %v, want ≈ %v", got, rho)
	}
}

func TestCorrelatedRayleighZeroRho(t *testing.T) {
	rng := NewRNG(74)
	h, err := CorrelatedRayleigh(rng, 3, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if h.Rows != 3 || h.Cols != 3 {
		t.Fatal("bad shape")
	}
}

func TestFreqSelectiveGainAndCoherence(t *testing.T) {
	rng := NewRNG(75)
	sc := make([]int, 48)
	for i := range sc {
		sc[i] = i
	}
	var gain, adjCorr, farCorr, pow0 float64
	const trials = 800
	for i := 0; i < trials; i++ {
		hs := FreqSelective(rng, 1, 1, sc, DefaultIndoorTDL)
		for _, h := range hs {
			v := h.At(0, 0)
			gain += real(v)*real(v) + imag(v)*imag(v)
		}
		a := hs[0].At(0, 0)
		adjCorr += real(a * cmplx.Conj(hs[1].At(0, 0)))
		farCorr += real(a * cmplx.Conj(hs[24].At(0, 0)))
		pow0 += real(a * cmplx.Conj(a))
	}
	gain /= float64(trials * len(sc))
	if math.Abs(gain-1) > 0.05 {
		t.Fatalf("per-subcarrier gain %v not ≈ 1", gain)
	}
	// Adjacent subcarriers must be strongly correlated; distant ones much less.
	if adjCorr/pow0 < 0.8 {
		t.Fatalf("adjacent subcarrier correlation too low: %v", adjCorr/pow0)
	}
	if math.Abs(farCorr/pow0) > 0.4 {
		t.Fatalf("far subcarrier correlation too high: %v", farCorr/pow0)
	}
}

func TestFreqSelectiveFlatWithOneTap(t *testing.T) {
	rng := NewRNG(76)
	hs := FreqSelective(rng, 2, 2, []int{0, 13, 50}, TDLConfig{NTaps: 1, NFFT: 64})
	for k := 1; k < len(hs); k++ {
		if !hs[k].EqualApprox(hs[0], 1e-12) {
			t.Fatal("single-tap channel must be flat across subcarriers")
		}
	}
}

func TestAWGNVariance(t *testing.T) {
	rng := NewRNG(77)
	const n = 100000
	y := make([]complex128, n)
	AddAWGN(rng, y, 0.5)
	if v := cmatrix.Norm2(y) / n; math.Abs(v-0.5) > 0.02 {
		t.Fatalf("AWGN variance %v, want 0.5", v)
	}
}

func TestSNRConversionRoundTrip(t *testing.T) {
	for _, snr := range []float64{-3, 0, 13.5, 21.6, 30} {
		s2 := Sigma2FromSNRdB(snr, 1)
		if got := SNRdBFromSigma2(s2, 1); math.Abs(got-snr) > 1e-9 {
			t.Fatalf("round trip %v → %v", snr, got)
		}
	}
	// Higher SNR means less noise.
	if Sigma2FromSNRdB(20, 1) >= Sigma2FromSNRdB(10, 1) {
		t.Fatal("σ² not decreasing in SNR")
	}
	// 0 dB with unit energy is unit noise.
	if math.Abs(Sigma2FromSNRdB(0, 1)-1) > 1e-12 {
		t.Fatal("0 dB convention broken")
	}
}
