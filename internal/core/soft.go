package core

import "math"

// maxLLR clamps soft outputs when a bit has no counter-hypothesis among
// the evaluated paths. Small candidate lists miss counter-hypotheses
// often, so list sphere decoders clip aggressively (±8 is the customary
// value); without the tight clip the missing-hypothesis bits come out
// overconfident and soft decoding loses its gain.
const maxLLR = 8.0

// DetectSoft evaluates the selected paths like Detect but additionally
// produces per-bit log-likelihood ratios by max-log-MAP over the
// candidate list: LLR(b) = (min_{s∈E, b(s)=1} ‖ȳ−Rs‖² −
// min_{s∈E, b(s)=0} ‖ȳ−Rs‖²) / σ², positive favouring bit 0.
//
// This is the paper's §7 future-work extension ("extend FlexCore to
// soft-detectors" [7,43]): FlexCore's path set doubles as the candidate
// list of a list sphere decoder at no extra detection cost.
// llrs[u][b] is bit b of stream u (original stream order).
func (d *FlexCore) DetectSoft(y []complex128, sigma2 float64) (best []int, llrs [][]float64) {
	ybar := d.qr.Ybar(y)
	d.countDetections(1, len(y))
	bits := d.cons.BitsPerSymbol()

	type candidate struct {
		idx []int
		ped float64
	}
	cands := make([]candidate, 0, len(d.paths))
	idx := make([]int, d.n)
	sym := make([]complex128, d.n)
	for _, p := range d.paths {
		ped, ok := d.evalPath(ybar, p.Ranks, idx, sym, math.Inf(1))
		if ok {
			cands = append(cands, candidate{idx: append([]int(nil), idx...), ped: ped})
		}
	}
	if len(cands) == 0 {
		// Degenerate: fall back to the clamped SIC path with saturated
		// confidence.
		sic := d.clampedSICInto(ybar, make([]int, d.n), make([]complex128, d.n))
		cands = append(cands, candidate{idx: sic, ped: 0})
	}

	bestI := 0
	for i := range cands {
		if cands[i].ped < cands[bestI].ped {
			bestI = i
		}
	}

	// Per-stream, per-bit hypothesis minima over the candidate list
	// (streams here are in factored order; unpermute at the end).
	min0 := make([][]float64, d.n)
	min1 := make([][]float64, d.n)
	for u := 0; u < d.n; u++ {
		min0[u] = make([]float64, bits)
		min1[u] = make([]float64, bits)
		for b := 0; b < bits; b++ {
			min0[u][b] = math.Inf(1)
			min1[u][b] = math.Inf(1)
		}
	}
	bitBuf := make([]uint8, bits)
	for _, c := range cands {
		for u := 0; u < d.n; u++ {
			d.cons.SymbolBits(c.idx[u], bitBuf)
			for b := 0; b < bits; b++ {
				if bitBuf[b] == 0 {
					if c.ped < min0[u][b] {
						min0[u][b] = c.ped
					}
				} else if c.ped < min1[u][b] {
					min1[u][b] = c.ped
				}
			}
		}
	}

	permLLR := make([][]float64, d.n)
	for u := 0; u < d.n; u++ {
		permLLR[u] = make([]float64, bits)
		for b := 0; b < bits; b++ {
			var l float64
			switch {
			case math.IsInf(min0[u][b], 1):
				l = -maxLLR
			case math.IsInf(min1[u][b], 1):
				l = maxLLR
			default:
				l = (min1[u][b] - min0[u][b]) / sigma2
				if l > maxLLR {
					l = maxLLR
				}
				if l < -maxLLR {
					l = -maxLLR
				}
			}
			permLLR[u][b] = l
		}
	}

	// Unpermute streams back to original order.
	best = d.qr.UnpermuteInts(cands[bestI].idx)
	llrs = make([][]float64, d.n)
	for k, src := range d.qr.Perm {
		llrs[src] = permLLR[k]
	}
	return best, llrs
}
