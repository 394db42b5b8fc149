package ofdm

import (
	"math"
	"math/cmplx"
	"math/rand/v2"
	"testing"

	"flexcore/internal/constellation"
)

func TestModemRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 12))
	m := NewModulator()
	cons := constellation.MustNew(16)
	data := make([]complex128, DataSubcarriers)
	for i := range data {
		data[i] = cons.Point(rng.IntN(16))
	}
	wave, err := m.Symbol(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(wave) != SamplesPerSymbol {
		t.Fatalf("waveform length %d", len(wave))
	}
	// The first CP samples must repeat the tail.
	for i := 0; i < CPLength; i++ {
		if cmplx.Abs(wave[i]-wave[NFFT+i]) > 1e-12 {
			t.Fatalf("CP mismatch at %d", i)
		}
	}
	got, err := m.Demodulate(wave)
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if cmplx.Abs(got[i]-data[i]) > 1e-9 {
			t.Fatalf("round trip bin %d: %v vs %v", i, got[i], data[i])
		}
	}
}

func TestModemValidation(t *testing.T) {
	m := NewModulator()
	if _, err := m.Symbol(make([]complex128, 5)); err == nil {
		t.Fatal("short data accepted")
	}
	if _, err := m.Demodulate(make([]complex128, 10)); err == nil {
		t.Fatal("short waveform accepted")
	}
}

func TestModemCPAbsorbsMultipath(t *testing.T) {
	// A delay-spread channel shorter than the CP must appear as a pure
	// per-subcarrier complex gain — the property OFDM exists for.
	rng := rand.New(rand.NewPCG(13, 14))
	m := NewModulator()
	cons := constellation.MustNew(16)
	data := make([]complex128, DataSubcarriers)
	for i := range data {
		data[i] = cons.Point(rng.IntN(16))
	}
	wave, err := m.Symbol(data)
	if err != nil {
		t.Fatal(err)
	}
	// 4-tap channel.
	taps := []complex128{complex(0.8, 0.1), complex(0.3, -0.2), complex(-0.1, 0.15), complex(0.05, 0.05)}
	// Convolve two consecutive identical symbols so the CP of the second
	// absorbs the first's tail, then inspect the second.
	stream := append(append([]complex128(nil), wave...), wave...)
	rx := convolve(stream, taps)
	second := rx[SamplesPerSymbol : 2*SamplesPerSymbol]
	got, err := m.Demodulate(second)
	if err != nil {
		t.Fatal(err)
	}
	// Expected per-bin gain: DFT of the taps at the bin frequency.
	idx := DataSubcarrierIndices()
	for i, bin := range idx {
		var h complex128
		for d, tap := range taps {
			h += tap * cmplx.Exp(complex(0, -2*math.Pi*float64(bin*d)/float64(NFFT)))
		}
		want := h * data[i]
		if cmplx.Abs(got[i]-want) > 1e-9 {
			t.Fatalf("bin %d: %v, want %v", bin, got[i], want)
		}
	}
}

func convolve(x, taps []complex128) []complex128 {
	out := make([]complex128, len(x))
	for n := range x {
		for d, tap := range taps {
			if n-d >= 0 {
				out[n] += tap * x[n-d]
			}
		}
	}
	return out
}

func TestLTFChannelEstimation(t *testing.T) {
	m := NewModulator()
	ltfWave, err := m.Symbol(LTFSequence())
	if err != nil {
		t.Fatal(err)
	}
	taps := []complex128{complex(1, 0), complex(0.4, -0.3)}
	stream := append(append([]complex128(nil), ltfWave...), ltfWave...)
	rx := convolve(stream, taps)
	h, err := EstimateFromLTF(rx[SamplesPerSymbol : 2*SamplesPerSymbol])
	if err != nil {
		t.Fatal(err)
	}
	idx := DataSubcarrierIndices()
	for i, bin := range idx {
		var want complex128
		for d, tap := range taps {
			want += tap * cmplx.Exp(complex(0, -2*math.Pi*float64(bin*d)/float64(NFFT)))
		}
		if cmplx.Abs(h[i]-want) > 1e-9 {
			t.Fatalf("bin %d: ĥ %v, want %v", bin, h[i], want)
		}
	}
}

func TestLTFSequenceBalanced(t *testing.T) {
	seq := LTFSequence()
	if len(seq) != DataSubcarriers {
		t.Fatal("LTF length")
	}
	pos := 0
	for _, v := range seq {
		if v != 1 && v != -1 {
			t.Fatalf("LTF value %v not BPSK", v)
		}
		if v == 1 {
			pos++
		}
	}
	// Reasonably balanced sign pattern.
	if pos < DataSubcarriers/4 || pos > 3*DataSubcarriers/4 {
		t.Fatalf("LTF unbalanced: %d of %d positive", pos, DataSubcarriers)
	}
}
