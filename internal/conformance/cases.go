package conformance

import (
	"flexcore/internal/channel"
	"flexcore/internal/cmatrix"
	"flexcore/internal/constellation"
)

// Case is one fully-determined detection scenario: a seeded channel
// realisation plus a burst of noisy received vectors with their
// transmitted symbols. Everything is a pure function of the parameters,
// so a Case can be reproduced from its description alone — the property
// the golden corpus and the invariant tests are built on.
type Case struct {
	Seed    uint64
	M       int // constellation order |Q|
	Nt      int // transmit streams
	Nr      int // receive antennas
	SNRdB   float64
	Vectors int // received vectors per channel realisation

	Cons   *constellation.Constellation
	H      *cmatrix.Matrix
	Sigma2 float64
	Sent   [][]int        // [vector][stream] transmitted symbol indices
	Y      [][]complex128 // [vector][antenna] received vectors
}

// NewCase materialises the scenario for the given parameters. All
// randomness flows through a single stream derived from Seed, so the
// case depends only on its parameters — never on call order.
func NewCase(seed uint64, m, nt, nr int, snrdB float64, vectors int) *Case {
	c := &Case{Seed: seed, M: m, Nt: nt, Nr: nr, SNRdB: snrdB, Vectors: vectors}
	c.Cons = constellation.MustNew(m)
	c.Sigma2 = channel.Sigma2FromSNRdB(snrdB, 1)
	rng := channel.NewStreamRNG(seed, 0xC04F)
	c.H = channel.Rayleigh(rng, nr, nt)
	c.Sent = make([][]int, vectors)
	c.Y = make([][]complex128, vectors)
	x := make([]complex128, nt)
	for v := 0; v < vectors; v++ {
		c.Sent[v] = make([]int, nt)
		for i := 0; i < nt; i++ {
			c.Sent[v][i] = rng.IntN(m)
			x[i] = c.Cons.Point(c.Sent[v][i])
		}
		c.Y[v] = channel.AddAWGN(rng, c.H.MulVec(x), c.Sigma2)
	}
	return c
}

// Hypotheses returns the oracle search-space size |Q|^Nt, saturating at
// MaxOracleHypotheses+1 when it would overflow the budget.
func (c *Case) Hypotheses() int {
	total := 1
	for i := 0; i < c.Nt; i++ {
		if total > MaxOracleHypotheses/c.M {
			return MaxOracleHypotheses + 1
		}
		total *= c.M
	}
	return total
}

// Score returns the receive-domain squared distance of a detector's
// decision for vector v.
func (c *Case) Score(v int, idx []int) float64 {
	return HypothesisDistance(c.H, c.Y[v], c.Cons, idx)
}
