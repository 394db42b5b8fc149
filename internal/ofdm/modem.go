package ofdm

import (
	"fmt"
	"math"
)

// CPLength is the 802.11 cyclic prefix in samples (0.8 µs at 20 MHz).
const CPLength = 16

// SamplesPerSymbol is the time-domain OFDM symbol length including CP.
const SamplesPerSymbol = NFFT + CPLength

// Modulator assembles time-domain OFDM symbols from frequency-domain
// subcarrier values — the transmit half of the paper's WARP waveform
// chain.
type Modulator struct {
	dataIdx []int
}

// NewModulator returns a modulator over the 48 standard data bins.
func NewModulator() *Modulator {
	return &Modulator{dataIdx: DataSubcarrierIndices()}
}

// Symbol modulates one OFDM symbol: data carries one complex value per
// data subcarrier (len 48); pilots and unused bins are zero. The output
// has SamplesPerSymbol samples, CP first. The transform is unitary
// (√N-scaled) so a per-sample noise variance of σ² at the receiver maps
// to exactly σ² per demodulated subcarrier — per-bin SNR equals the
// waveform SNR.
func (m *Modulator) Symbol(data []complex128) ([]complex128, error) {
	if len(data) != len(m.dataIdx) {
		return nil, fmt.Errorf("ofdm: %d data values, want %d", len(data), len(m.dataIdx))
	}
	freq := make([]complex128, NFFT)
	for i, bin := range m.dataIdx {
		freq[bin] = data[i]
	}
	IFFT(freq)
	root := complex(math.Sqrt(NFFT), 0)
	for i := range freq {
		freq[i] *= root
	}
	out := make([]complex128, SamplesPerSymbol)
	copy(out, freq[NFFT-CPLength:]) // cyclic prefix
	copy(out[CPLength:], freq)
	return out, nil
}

// Demodulate strips the CP and returns the 48 data-bin values of one
// received OFDM symbol (SamplesPerSymbol samples), inverting Symbol's
// unitary scaling.
func (m *Modulator) Demodulate(samples []complex128) ([]complex128, error) {
	if len(samples) != SamplesPerSymbol {
		return nil, fmt.Errorf("ofdm: %d samples, want %d", len(samples), SamplesPerSymbol)
	}
	freq := make([]complex128, NFFT)
	copy(freq, samples[CPLength:])
	FFT(freq)
	root := complex(math.Sqrt(NFFT), 0)
	out := make([]complex128, len(m.dataIdx))
	for i, bin := range m.dataIdx {
		out[i] = freq[bin] / root
	}
	return out, nil
}

// LTFSequence returns the known long-training-field values: BPSK ±1 on
// every data bin, deterministic in the bin index (a stand-in for the
// 802.11 L-LTF sequence with the same constant-magnitude property).
func LTFSequence() []complex128 {
	idx := DataSubcarrierIndices()
	seq := make([]complex128, len(idx))
	for i, bin := range idx {
		// A simple deterministic sign pattern with good balance.
		if (bin*2654435761)>>4&1 == 0 {
			seq[i] = 1
		} else {
			seq[i] = -1
		}
	}
	return seq
}

// EstimateFromLTF least-squares-estimates the per-data-bin channel from
// a received LTF symbol: Ĥ(bin) = Y(bin)/LTF(bin). Averaging over
// repeated LTFs is the caller's job.
func EstimateFromLTF(received []complex128) ([]complex128, error) {
	m := NewModulator()
	y, err := m.Demodulate(received)
	if err != nil {
		return nil, err
	}
	ltf := LTFSequence()
	h := make([]complex128, len(y))
	for i := range y {
		h[i] = y[i] / ltf[i]
	}
	return h, nil
}
