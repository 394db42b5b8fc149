package phy

import (
	"fmt"
	"math"

	"flexcore/internal/channel"
	"flexcore/internal/cmatrix"
	"flexcore/internal/constellation"
	"flexcore/internal/detector"
	"flexcore/internal/ofdm"
)

// WaveformConfig drives a full time-domain over-the-air-style simulation
// — the closest software analogue of the paper's WARP experiments: every
// user synthesises a real OFDM waveform (preamble + payload), the
// waveforms traverse per-antenna-pair multipath channels sample by
// sample, and the receiver estimates channels from the preamble before
// detecting. Users are trigger-synchronised, as WARPLab nodes are, so
// no timing search is needed; preambles are time-orthogonal (user u
// sends its two LTF symbols in slots 2u, 2u+1 and is silent otherwise).
type WaveformConfig struct {
	Users         int
	APAntennas    int
	Constellation *constellation.Constellation
	// DataSymbols is the payload length in OFDM symbols.
	DataSymbols int
	// SNRdB sets the per-stream symbol SNR (Es/σ²).
	SNRdB float64
	// Taps is the multipath tap count per antenna pair (must stay below
	// the cyclic prefix; taps decay 3 dB each).
	Taps int
	Seed uint64
	// Detector demultiplexes the received vectors (prepared per
	// subcarrier with the preamble-estimated channel).
	Detector detector.Detector
}

// WaveformResult reports waveform-level detection quality.
type WaveformResult struct {
	Symbols      int
	SymbolErrors int
	SER          float64
	// ChannelErrVar is the mean squared error of the preamble channel
	// estimate against the true frequency response.
	ChannelErrVar float64
}

// RunWaveform executes the time-domain chain.
func RunWaveform(cfg WaveformConfig) (WaveformResult, error) {
	if cfg.Users < 1 || cfg.APAntennas < cfg.Users {
		return WaveformResult{}, fmt.Errorf("phy: invalid waveform geometry")
	}
	if cfg.Taps < 1 || cfg.Taps > ofdm.CPLength {
		return WaveformResult{}, fmt.Errorf("phy: taps must be in [1, %d]", ofdm.CPLength)
	}
	if cfg.Detector == nil {
		return WaveformResult{}, fmt.Errorf("phy: detector required")
	}
	rng := channel.NewRNG(cfg.Seed)
	mod := ofdm.NewModulator()
	cons := cfg.Constellation
	nt, nr := cfg.Users, cfg.APAntennas
	sigma2 := channel.Sigma2FromSNRdB(cfg.SNRdB, 1)

	preambleSlots := 2 * nt
	totalSymbols := preambleSlots + cfg.DataSymbols
	samples := totalSymbols * ofdm.SamplesPerSymbol

	// Per-user transmit waveforms: staggered LTFs then payload.
	txSym := grid[int](nt, cfg.DataSymbols, ofdm.DataSubcarriers) // [user][dataSym][subcarrier]
	waves := make([][]complex128, nt)
	ltf := ofdm.LTFSequence()
	for u := 0; u < nt; u++ {
		wave := make([]complex128, 0, samples)
		for slot := 0; slot < preambleSlots; slot++ {
			if slot == 2*u || slot == 2*u+1 {
				s, err := mod.Symbol(ltf)
				if err != nil {
					return WaveformResult{}, err
				}
				wave = append(wave, s...)
			} else {
				wave = append(wave, make([]complex128, ofdm.SamplesPerSymbol)...)
			}
		}
		for s := 0; s < cfg.DataSymbols; s++ {
			data := make([]complex128, ofdm.DataSubcarriers)
			for k := range data {
				idx := rng.IntN(cons.Size())
				txSym[u][s][k] = idx
				data[k] = cons.Point(idx)
			}
			w, err := mod.Symbol(data)
			if err != nil {
				return WaveformResult{}, err
			}
			wave = append(wave, w...)
		}
		waves[u] = wave
	}

	// Per-pair multipath taps with an exponential profile, normalised so
	// E‖h(f)‖² = 1 per pair.
	powers := channel.TDLConfig{NTaps: cfg.Taps, DecayPerTap: 3, NFFT: ofdm.NFFT}
	taps := make([][][]complex128, nr)
	for r := 0; r < nr; r++ {
		taps[r] = make([][]complex128, nt)
		for u := 0; u < nt; u++ {
			taps[r][u] = drawTaps(rng, powers)
		}
	}

	// Superpose at each receive antenna and add noise.
	rx := make([][]complex128, nr)
	for r := 0; r < nr; r++ {
		acc := make([]complex128, samples)
		for u := 0; u < nt; u++ {
			convolveInto(acc, waves[u], taps[r][u])
		}
		channel.AddAWGN(rng, acc, sigma2)
		rx[r] = acc
	}

	// Channel estimation: user u's LTFs occupy slots 2u and 2u+1.
	// hEst[k] is the nr×nt matrix at data bin k.
	hEst := make([]*cmatrix.Matrix, ofdm.DataSubcarriers)
	for k := range hEst {
		hEst[k] = cmatrix.New(nr, nt)
	}
	var estErr float64
	var estN int
	for u := 0; u < nt; u++ {
		for r := 0; r < nr; r++ {
			var avg []complex128
			for rep := 0; rep < 2; rep++ {
				slot := (2*u + rep) * ofdm.SamplesPerSymbol
				h, err := ofdm.EstimateFromLTF(rx[r][slot : slot+ofdm.SamplesPerSymbol])
				if err != nil {
					return WaveformResult{}, err
				}
				if avg == nil {
					avg = h
				} else {
					for i := range avg {
						avg[i] = (avg[i] + h[i]) / 2
					}
				}
			}
			truth := tapsToFreq(taps[r][u])
			for k := range avg {
				hEst[k].Set(r, u, avg[k])
				d := avg[k] - truth[k]
				estErr += real(d)*real(d) + imag(d)*imag(d)
				estN++
			}
		}
	}

	// Detection: one frame prepared on the estimates, each bin's burst
	// the data symbols' received vectors across antennas.
	res := WaveformResult{ChannelErrVar: estErr / float64(estN)}
	ys := grid[complex128](ofdm.DataSubcarriers, cfg.DataSymbols, nr) // [bin][dataSym][antenna]
	for r := 0; r < nr; r++ {
		for s := 0; s < cfg.DataSymbols; s++ {
			start := (preambleSlots + s) * ofdm.SamplesPerSymbol
			d, err := mod.Demodulate(rx[r][start : start+ofdm.SamplesPerSymbol])
			if err != nil {
				return WaveformResult{}, err
			}
			for k := range ys {
				ys[k][s][r] = d[k]
			}
		}
	}
	err := NewFrameDetector(cfg.Detector).DetectFrame(hEst, sigma2,
		func(k int) [][]complex128 { return ys[k] },
		func(k int, got [][]int) {
			for s := range got {
				for u := 0; u < nt; u++ {
					res.Symbols++
					if got[s][u] != txSym[u][s][k] {
						res.SymbolErrors++
					}
				}
			}
		})
	if err != nil {
		return WaveformResult{}, fmt.Errorf("phy: waveform detect: %w", err)
	}
	res.SER = float64(res.SymbolErrors) / float64(res.Symbols)
	return res, nil
}

// drawTaps draws one antenna pair's normalised multipath taps.
func drawTaps(rng interface {
	NormFloat64() float64
}, cfg channel.TDLConfig) []complex128 {
	// Reuse channel.FreqSelective's profile arithmetic via direct draw.
	powers := make([]float64, cfg.NTaps)
	var sum float64
	for t := 0; t < cfg.NTaps; t++ {
		powers[t] = math.Pow(10, -cfg.DecayPerTap*float64(t)/10)
		sum += powers[t]
	}
	taps := make([]complex128, cfg.NTaps)
	for t := range taps {
		std := math.Sqrt(powers[t] / sum / 2)
		taps[t] = complex(rng.NormFloat64()*std, rng.NormFloat64()*std)
	}
	return taps
}

// tapsToFreq returns the data-bin frequency response of the taps.
func tapsToFreq(taps []complex128) []complex128 {
	freq := make([]complex128, ofdm.NFFT)
	copy(freq, taps)
	ofdm.FFT(freq)
	idx := ofdm.DataSubcarrierIndices()
	out := make([]complex128, len(idx))
	for i, bin := range idx {
		out[i] = freq[bin]
	}
	return out
}

// convolveInto accumulates conv(x, taps) into acc (same length as x).
func convolveInto(acc, x, taps []complex128) {
	for d, tap := range taps {
		if tap == 0 {
			continue
		}
		for n := d; n < len(x); n++ {
			acc[n] += tap * x[n-d]
		}
	}
}
