package core

import (
	"math"

	"flexcore/internal/constellation"
)

// maxLLR clamps soft outputs when a bit has no counter-hypothesis among
// the evaluated paths. Small candidate lists miss counter-hypotheses
// often, so list sphere decoders clip aggressively (±8 is the customary
// value); without the tight clip the missing-hypothesis bits come out
// overconfident and soft decoding loses its gain.
const maxLLR = 8.0

// softState is DetectSoft's detector-owned storage. Its sizes depend
// only on the stream count (bits per symbol is fixed per detector), so
// it regrows only past the largest stream count seen.
type softState struct {
	// least[v][u·bits+b] is the least distance of a candidate whose bit b
	// of stream u (original order) is v; least[0] then holds the LLRs.
	least [2][]float64
	rows  [][]float64 // least[0] sliced per stream
	best  []int
	bits  []uint8
}

// reset sizes the arenas for n streams of nb bits and clears the minima.
func (s *softState) reset(n, nb int) {
	if cap(s.best) < n {
		s.least = [2][]float64{make([]float64, n*nb), make([]float64, n*nb)}
		s.rows, s.best, s.bits = make([][]float64, n), make([]int, n), make([]uint8, nb)
	}
	s.rows, s.best = s.rows[:n], s.best[:n]
	for v := range s.least {
		s.least[v] = s.least[v][:n*nb]
		for i := range s.least[v] {
			s.least[v][i] = math.Inf(1)
		}
	}
	for u := range s.rows {
		s.rows[u] = s.least[0][u*nb : (u+1)*nb : (u+1)*nb]
	}
}

// observe folds one candidate — symbol indices idx in the factored
// order perm maps back, at distance ped — into the per-bit minima.
//
//flexcore:noalloc
func (s *softState) observe(cons *constellation.Constellation, perm, idx []int, ped float64) {
	for k, sym := range idx {
		cons.SymbolBits(sym, s.bits)
		at := perm[k] * len(s.bits)
		for b, v := range s.bits {
			if m := &s.least[v][at+b]; ped < *m {
				*m = ped
			}
		}
	}
}

// DetectSoft evaluates the selected paths like Detect but additionally
// produces per-bit log-likelihood ratios by max-log-MAP over the
// candidate list: LLR(b) = (min_{s∈E, b(s)=1} ‖ȳ−Rs‖² −
// min_{s∈E, b(s)=0} ‖ȳ−Rs‖²) / σ², positive favouring bit 0.
//
// This is the paper's §7 future-work extension ("extend FlexCore to
// soft-detectors" [7,43]): FlexCore's path set doubles as the candidate
// list of a list sphere decoder at no extra detection cost. The list is
// never kept — each path's distance is folded into running per-bit
// minima as it is scored in full, on the complex128 arithmetic whatever
// the Backend. If every path deactivates, the clamped-SIC decision is
// the one candidate (every LLR saturates) and counts as a fallback.
// llrs[u][b] is bit b of stream u (original stream order). best and
// llrs are detector-owned, apart from Detect's result, and valid until
// the next Detect/DetectBatch/DetectSoft call.
//
//flexcore:noalloc
func (d *FlexCore) DetectSoft(y []complex128, sigma2 float64) (best []int, llrs [][]float64) {
	d.countDetections(1, len(y))
	s := &d.soft
	s.reset(d.n, d.cons.BitsPerSymbol())
	idx, sym, win, perm := d.idx, d.sym, d.best, d.qr.Perm
	yb := d.qr.YbarInto(y, d.ybar)
	bestPed, found := 0.0, false
	for _, p := range d.set.view() {
		ped, ok := d.evalPath(yb, p.Ranks, idx, sym, math.Inf(1))
		if !ok {
			continue
		}
		if !found || ped < bestPed {
			bestPed, found = ped, true
			copy(win, idx)
		}
		s.observe(d.cons, perm, idx, ped)
	}
	if !found {
		win = d.fallback(yb)
		s.observe(d.cons, perm, win, 0)
	}
	for i, m0 := range s.least[0] {
		m1 := s.least[1][i]
		l := (m1 - m0) / sigma2
		switch {
		case math.IsInf(m0, 1):
			l = -maxLLR
		case math.IsInf(m1, 1):
			l = maxLLR
		}
		s.least[0][i] = max(-maxLLR, min(l, maxLLR))
	}
	return d.qr.UnpermuteIntsInto(win, s.best), s.rows
}
