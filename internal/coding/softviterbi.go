package coding

import "fmt"

// DecodeRate12Soft performs soft-decision Viterbi decoding of a
// zero-tail terminated rate-1/2 code word from log-likelihood ratios.
// llrs[i] is the LLR of coded bit i with the convention
// LLR = log P(bit=0)/P(bit=1): positive values favour 0. A position
// with no channel observation carries LLR 0, so no separate erasure
// symbol is needed. infoLen is the number of information bits.
//
// It is also the hard-decision decoder: hard bits enter as ±1 LLRs
// (+1 for a 0 bit), every branch metric is then 2·Hamming − 2, and the
// survivors and their tie-breaks are those of a Hamming-metric Viterbi.
//
// Soft decoding is the substrate for the paper's §7 future-work
// extension ("extend FlexCore to soft-detectors"); see detector-side LLR
// generation in internal/core.
func DecodeRate12Soft(llrs []float64, infoLen int) ([]uint8, error) {
	steps := infoLen + ConstraintLength - 1
	if len(llrs) != 2*steps {
		return nil, fmt.Errorf("coding: LLR length %d, want %d for %d info bits", len(llrs), 2*steps, infoLen)
	}
	const inf = 1e30
	metric := make([]float64, numStates)
	next := make([]float64, numStates)
	for i := range metric {
		metric[i] = inf
	}
	metric[0] = 0
	type surv struct {
		prev  uint8
		input uint8
	}
	survivors := make([][]surv, steps)

	for t := 0; t < steps; t++ {
		l0, l1 := llrs[2*t], llrs[2*t+1]
		for i := range next {
			next[i] = inf
		}
		row := make([]surv, numStates)
		for s := 0; s < numStates; s++ {
			m := metric[s]
			if m >= inf {
				continue
			}
			for in := 0; in < 2; in++ {
				out := branchOutputs[s][in]
				// Branch metric: correlation distance. A transmitted 1
				// costs +LLR when the LLR favours 0 (and vice versa).
				var bm float64
				if (out>>1)&1 == 1 {
					bm += l0
				} else {
					bm -= l0
				}
				if out&1 == 1 {
					bm += l1
				} else {
					bm -= l1
				}
				ns := (in<<(ConstraintLength-1) | s) >> 1
				if m+bm < next[ns] {
					next[ns] = m + bm
					row[ns] = surv{prev: uint8(s), input: uint8(in)}
				}
			}
		}
		survivors[t] = row
		metric, next = next, metric
	}

	decoded := make([]uint8, steps)
	state := 0
	for t := steps - 1; t >= 0; t-- {
		sv := survivors[t][state]
		decoded[t] = sv.input
		state = int(sv.prev)
	}
	return decoded[:infoLen], nil
}
