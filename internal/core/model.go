// Package core implements FlexCore (Husmann et al., NSDI '17): the
// channel-aware pre-processing that selects the most promising sphere-
// decoder tree paths as position vectors (§3.1), and the massively
// parallel detection step that evaluates one path per processing element
// using the predefined k-th-closest symbol ordering (§3.2). It also
// provides a-FlexCore, the adjustable variant that activates only as many
// processing elements as the channel conditions require (§5.1, Fig. 10).
package core

import (
	"fmt"
	"math"
	"slices"

	"flexcore/internal/cmatrix"
	"flexcore/internal/constellation"
)

// peClamp bounds the per-level error probability away from 0 and 1 so the
// geometric model (Eq. 3) stays well defined in log domain. Only the
// ordering and decay of path probabilities matter to path selection.
const (
	peMin = 1e-15
	peMax = 0.9999
)

// Model is the per-channel probabilistic model of Eqs. 2–4: for every
// tree level (R row) the probability Pe(l) that the closest constellation
// symbol to the effective received point is not the transmitted one, and
// the derived geometric rank probabilities
// P_l(k) = (1 − Pe(l))·Pe(l)^(k−1) (Appendix Eq. 11).
type Model struct {
	// Pe[i] is the per-level error probability for R row i.
	Pe []float64
	// logPe and log1mPe cache log Pe and log(1−Pe).
	logPe   []float64
	log1mPe []float64
	// M is the constellation order.
	M int
}

// NewModel evaluates Eq. 4 for every diagonal entry of R.
//
// Eq. 4 in the paper reads (2 + 2/√|Q|)·erfc(|R(l,l)|·√Es/σ); a
// coefficient above 2 cannot be a probability, so this implementation
// uses the exact square-QAM nearest-symbol error of the paper's own
// citation (Barry–Lee–Messerschmitt [6]): with the per-axis error
// p = (1 − 1/√|Q|)·erfc(d·|R(l,l)|/σ) for half-minimum-distance d,
// Pe = 1 − (1 − p)². This matches the paper's expression asymptotically
// (≈ 2(1−1/√|Q|)·erfc(·) at high SNR) and, unlike a raw union bound,
// saturates correctly at low SNR — which is what makes the Fig. 14
// model-vs-simulation agreement hold "in all SNR regimes".
func NewModel(r *cmatrix.Matrix, sigma2 float64, cons *constellation.Constellation) *Model {
	return NewModelInto(&Model{}, r, sigma2, cons)
}

// NewModelInto is NewModel evaluating into a caller-owned Model whose
// slices are reused when the dimensions match — the channel-rate fast
// path re-models every subcarrier without allocating. It returns m.
func NewModelInto(m *Model, r *cmatrix.Matrix, sigma2 float64, cons *constellation.Constellation) *Model {
	m.Pe = levelKey(m.Pe, r, sigma2, cons) // the key, turned into Pe in place
	return m.fromKey(m.Pe, cons)
}

// levelKey writes into dst, grown to n, the argument of Eq. 4's erfc at
// every level, a_l = real(R(l,l))·d/σ. It is all the model reads of
// (R, σ²), so it is the PathReuse key (frame.go): equal keys build
// bit-identical models, and so identical path sets.
func levelKey(dst []float64, r *cmatrix.Matrix, sigma2 float64, cons *constellation.Constellation) []float64 {
	dst = slices.Grow(dst[:0], r.Cols)[:r.Cols]
	sigma := math.Sqrt(sigma2)
	for i := range dst {
		dst[i] = real(r.At(i, i)) * cons.Scale() / sigma
	}
	return dst
}

// fromKey evaluates Eq. 4 from a level key (levelKey) into m and returns
// m. The key may be m.Pe: level i reads key[i] before writing Pe[i].
func (m *Model) fromKey(key []float64, cons *constellation.Constellation) *Model {
	n := len(key)
	m.Pe = slices.Grow(m.Pe[:0], n)[:n] // keeps a key already in Pe
	m.logPe, m.log1mPe = slices.Grow(m.logPe[:0], n)[:n], slices.Grow(m.log1mPe[:0], n)[:n]
	m.M = cons.Size()
	axisCoef := 1 - 1/math.Sqrt(float64(cons.Size()))
	for i, a := range key {
		pax := axisCoef * math.Erfc(a)
		pe := 1 - (1-pax)*(1-pax)
		if pe < peMin {
			pe = peMin
		}
		if pe > peMax {
			pe = peMax
		}
		m.Pe[i] = pe
		m.logPe[i] = math.Log(pe)
		m.log1mPe[i] = math.Log1p(-pe)
	}
	return m
}

// LevelProb returns P_l(k) = (1 − Pe(l))·Pe(l)^(k−1) for R row i and rank
// k ≥ 1 (Eq. 3 / Appendix Eq. 11).
func (m *Model) LevelProb(i, k int) float64 {
	return (1 - m.Pe[i]) * math.Pow(m.Pe[i], float64(k-1))
}

// RootLogP returns log Pc of the all-ones position vector, Σ log(1−Pe).
func (m *Model) RootLogP() float64 {
	var s float64
	for _, v := range m.log1mPe {
		s += v
	}
	return s
}

// PathLogP returns log Pc(p) = Σ_i [log(1−Pe(i)) + (p(i)−1)·log Pe(i)]
// for a full position vector (ranks are 1-based, indexed by R row).
func (m *Model) PathLogP(ranks []int) float64 {
	if len(ranks) != len(m.Pe) {
		panic(fmt.Sprintf("core: rank vector length %d, want %d", len(ranks), len(m.Pe)))
	}
	var s float64
	for i, k := range ranks {
		s += m.log1mPe[i] + float64(k-1)*m.logPe[i]
	}
	return s
}

// Levels returns the number of tree levels.
func (m *Model) Levels() int { return len(m.Pe) }
