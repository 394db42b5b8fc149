// Package channel provides the wireless-channel substrate of the FlexCore
// reproduction: deterministic seeded randomness, i.i.d. and spatially
// correlated Rayleigh MIMO channels, frequency-selective tapped-delay-line
// channels for OFDM, AWGN injection, and synthetic multi-user "trace sets"
// standing in for the paper's WARP v3 over-the-air measurements (see
// DESIGN.md §2 for the substitution rationale).
package channel

import (
	"fmt"
	"math"
	"math/rand/v2"

	"flexcore/internal/cmatrix"
)

// NewRNG returns a deterministic PCG-backed random source for the seed.
// All stochastic experiment inputs flow through explicitly seeded RNGs so
// that every table and figure regenerates bit-identically.
func NewRNG(seed uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, seed^0xda3e39cb94b95bdb))
}

// SplitSeed derives the seed of an independent sub-stream from a base
// seed via a SplitMix64 finalising step. Parallel Monte-Carlo runs give
// every work unit (e.g. every simulated packet) its own RNG stream
// derived this way, so the random draws a unit sees depend only on
// (seed, stream) — never on how units are scheduled across workers —
// which is what makes parallel simulation results bit-identical for any
// worker count.
func SplitSeed(seed, stream uint64) uint64 {
	z := seed + (stream+1)*0x9e3779b97f4a7c15
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

// NewStreamRNG returns the deterministic RNG of sub-stream `stream` of a
// base seed (see SplitSeed).
func NewStreamRNG(seed, stream uint64) *rand.Rand {
	return NewRNG(SplitSeed(seed, stream))
}

// CN draws a circularly-symmetric complex Gaussian sample with the given
// variance (E|x|² = variance).
func CN(rng *rand.Rand, variance float64) complex128 {
	s := math.Sqrt(variance / 2)
	return complex(rng.NormFloat64()*s, rng.NormFloat64()*s)
}

// Rayleigh returns an nr×nt matrix with i.i.d. CN(0,1) entries — the flat
// Rayleigh-fading MIMO channel used for the paper's Table 1 simulations.
func Rayleigh(rng *rand.Rand, nr, nt int) *cmatrix.Matrix {
	h := cmatrix.New(nr, nt)
	for i := range h.Data {
		h.Data[i] = CN(rng, 1)
	}
	return h
}

// ExponentialCorrelation returns the nr×nr exponential correlation matrix
// C(i,j) = ρ^|i−j| that models closely spaced AP antennas (the paper's
// testbed spaces co-located AP antennas ≈6 cm apart).
func ExponentialCorrelation(n int, rho float64) *cmatrix.Matrix {
	c := cmatrix.New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			c.Set(i, j, complex(math.Pow(rho, math.Abs(float64(i-j))), 0))
		}
	}
	return c
}

// CorrelatedRayleigh returns C^{1/2}·H_iid, a receive-side Kronecker
// correlated Rayleigh channel. rho=0 reduces to Rayleigh.
func CorrelatedRayleigh(rng *rand.Rand, nr, nt int, rho float64) (*cmatrix.Matrix, error) {
	if rho == 0 {
		return Rayleigh(rng, nr, nt), nil
	}
	l, err := cmatrix.Cholesky(ExponentialCorrelation(nr, rho))
	if err != nil {
		return nil, fmt.Errorf("channel: correlation factor: %w", err)
	}
	return l.Mul(Rayleigh(rng, nr, nt)), nil
}

// AddAWGN adds white Gaussian noise of per-antenna variance sigma2 to y in
// place and returns y.
func AddAWGN(rng *rand.Rand, y []complex128, sigma2 float64) []complex128 {
	for i := range y {
		y[i] += CN(rng, sigma2)
	}
	return y
}

// Sigma2FromSNRdB converts an SNR (dB) to a noise variance using the
// per-stream convention of the sphere-decoding literature (and of the
// paper's 13.5/21.6 dB operating points): SNR = Es/σ², where Es is the
// average transmit symbol energy of one stream and σ² the per-receive-
// antenna noise variance.
func Sigma2FromSNRdB(snrdB, es float64) float64 {
	return es / math.Pow(10, snrdB/10)
}

// SNRdBFromSigma2 is the inverse of Sigma2FromSNRdB.
func SNRdBFromSigma2(sigma2, es float64) float64 {
	return 10 * math.Log10(es/sigma2)
}
