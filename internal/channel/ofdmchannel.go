package channel

import (
	"math"
	"math/cmplx"
	"math/rand/v2"

	"flexcore/internal/cmatrix"
)

// TDLConfig describes a tapped-delay-line frequency-selective channel with
// an exponential power-delay profile, the standard indoor-office model.
type TDLConfig struct {
	// NTaps is the number of delay taps (1 = flat fading).
	NTaps int
	// DecayPerTap is the per-tap power decay in dB (e.g. 3 dB).
	DecayPerTap float64
	// NFFT is the OFDM FFT size the delay taps are referred to.
	NFFT int
}

// DefaultIndoorTDL is an 8-tap, 3 dB/tap profile over a 64-point FFT —
// a typical indoor office delay spread at 20 MHz.
var DefaultIndoorTDL = TDLConfig{NTaps: 8, DecayPerTap: 3, NFFT: 64}

// CoherenceSubcarriers estimates the channel's coherence bandwidth in
// subcarrier spacings: the RMS delay spread τ_rms of the exponential
// power-delay profile (in samples) gives B_c ≈ 1/(5·τ_rms) as a fraction
// of the sampling rate, i.e. NFFT/(5·τ_rms) subcarrier spacings. It is
// the natural frame-coherence hint for FlexCore's position-vector reuse:
// subcarriers closer than this see nearly the same channel, so their
// pre-processing path sets coincide. Flat fading (τ_rms = 0) returns
// NFFT — every subcarrier is coherent.
func (c TDLConfig) CoherenceSubcarriers() int {
	powers := c.tapPowers()
	var mean, mean2 float64
	for t, p := range powers {
		mean += float64(t) * p
		mean2 += float64(t) * float64(t) * p
	}
	tauRMS := math.Sqrt(mean2 - mean*mean)
	if tauRMS == 0 {
		return c.NFFT
	}
	bc := float64(c.NFFT) / (5 * tauRMS)
	if bc < 1 {
		return 1
	}
	return int(bc)
}

// tapPowers returns the normalised (Σ=1) exponential power-delay profile,
// so the expected per-subcarrier channel gain stays E|H(f)|² = 1.
func (c TDLConfig) tapPowers() []float64 {
	p := make([]float64, c.NTaps)
	var sum float64
	for t := 0; t < c.NTaps; t++ {
		p[t] = math.Pow(10, -c.DecayPerTap*float64(t)/10)
		sum += p[t]
	}
	for t := range p {
		p[t] /= sum
	}
	return p
}

// FreqSelective draws one frequency-selective channel realisation: a
// per-subcarrier nr×nt matrix for each of the subcarrier indices in sc
// (indices into the NFFT grid). Entries across antenna pairs are
// independent; across subcarriers they are correlated through the shared
// delay taps, exactly as in a real OFDM system.
func FreqSelective(rng *rand.Rand, nr, nt int, sc []int, cfg TDLConfig) []*cmatrix.Matrix {
	powers := cfg.tapPowers()
	// taps[t] is the nr×nt matrix of tap-t gains.
	taps := make([]*cmatrix.Matrix, cfg.NTaps)
	for t := range taps {
		m := cmatrix.New(nr, nt)
		for i := range m.Data {
			m.Data[i] = CN(rng, powers[t])
		}
		taps[t] = m
	}
	out := make([]*cmatrix.Matrix, len(sc))
	for k, f := range sc {
		h := cmatrix.New(nr, nt)
		for t := 0; t < cfg.NTaps; t++ {
			w := cmplx.Exp(complex(0, -2*math.Pi*float64(f*t)/float64(cfg.NFFT)))
			for i, v := range taps[t].Data {
				h.Data[i] += w * v
			}
		}
		out[k] = h
	}
	return out
}
