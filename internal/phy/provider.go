// Package phy is the link-level simulator of the FlexCore reproduction:
// the full 802.11-style uplink chain (CRC → convolutional coding →
// interleaving → QAM mapping → OFDM-MIMO channel → detection →
// deinterleaving → Viterbi → CRC check), packet-error-rate measurement,
// network-throughput computation and the SNR calibration that anchors
// every experiment at the paper's PER_ML operating points.
package phy

import (
	"flexcore/internal/channel"
	"flexcore/internal/cmatrix"
)

// ChannelProvider supplies per-packet, per-subcarrier channel matrices.
// The channel is static over one packet, as in the paper's evaluation.
type ChannelProvider interface {
	// Packet returns one channel matrix per simulated subcarrier for
	// packet p. Implementations must be deterministic in p.
	Packet(p int) []*cmatrix.Matrix
}

// TDLProvider draws an independent frequency-selective indoor channel per
// packet (synthetic stand-in for the paper's over-the-air traces).
type TDLProvider struct {
	Seed        uint64
	Users       int
	APAntennas  int
	Subcarriers []int
	Config      channel.TDLConfig
	// APCorrelation applies exponential receive-side correlation (0 = none).
	APCorrelation float64
}

// Packet implements ChannelProvider.
func (p *TDLProvider) Packet(pkt int) []*cmatrix.Matrix {
	rng := channel.NewRNG(p.Seed + uint64(pkt)*0x9e3779b97f4a7c15)
	hs := channel.FreqSelective(rng, p.APAntennas, p.Users, p.Subcarriers, p.Config)
	if p.APCorrelation != 0 {
		l, err := cmatrix.Cholesky(channel.ExponentialCorrelation(p.APAntennas, p.APCorrelation))
		if err == nil {
			for i := range hs {
				hs[i] = l.Mul(hs[i])
			}
		}
	}
	return hs
}

// FlatProvider draws one Rayleigh channel per packet, shared by every
// subcarrier (block fading): the whole codeword sees a single channel
// realisation, which reproduces the paper's packet-error behaviour —
// its measured indoor channels with ≤3 dB user-SNR spread put the PER
// anchors at 13.5/21.6 dB, far from the deep-diversity regime a
// many-tap synthetic channel would create.
type FlatProvider struct {
	Seed        uint64
	Users       int
	APAntennas  int
	Subcarriers int
	// APCorrelation applies exponential receive-side correlation — the
	// paper's AP co-locates antennas ≈6 cm apart, so its measured
	// channels are substantially correlated (0 = uncorrelated).
	APCorrelation float64
}

// Packet implements ChannelProvider.
func (p *FlatProvider) Packet(pkt int) []*cmatrix.Matrix {
	rng := channel.NewRNG(p.Seed + uint64(pkt)*0x94d049bb133111eb)
	h, err := channel.CorrelatedRayleigh(rng, p.APAntennas, p.Users, p.APCorrelation)
	if err != nil {
		// |ρ| < 1 keeps the correlation factor positive definite; treat a
		// bad configuration as uncorrelated rather than failing mid-sweep.
		h = channel.Rayleigh(rng, p.APAntennas, p.Users)
	}
	hs := make([]*cmatrix.Matrix, p.Subcarriers)
	for i := range hs {
		hs[i] = h
	}
	return hs
}

// IIDProvider draws an independent flat Rayleigh channel per subcarrier
// and packet — the model behind the paper's Table 1 simulations.
type IIDProvider struct {
	Seed        uint64
	Users       int
	APAntennas  int
	Subcarriers int
}

// Packet implements ChannelProvider.
func (p *IIDProvider) Packet(pkt int) []*cmatrix.Matrix {
	rng := channel.NewRNG(p.Seed + uint64(pkt)*0xbf58476d1ce4e5b9)
	hs := make([]*cmatrix.Matrix, p.Subcarriers)
	for i := range hs {
		hs[i] = channel.Rayleigh(rng, p.APAntennas, p.Users)
	}
	return hs
}

// TraceProvider cycles through a synthesized trace set (drop d serves
// packet d mod Drops) — the reproduction of the paper's trace-driven
// 12×12 evaluation.
type TraceProvider struct {
	Set *channel.TraceSet
}

// Packet implements ChannelProvider.
func (p *TraceProvider) Packet(pkt int) []*cmatrix.Matrix {
	return p.Set.H[pkt%len(p.Set.H)]
}
