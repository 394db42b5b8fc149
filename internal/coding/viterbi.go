package coding

import "fmt"

// DecodeRate12 performs hard-decision Viterbi decoding of a zero-tail
// terminated rate-1/2 code word (as produced by EncodeRate12, possibly
// with bit errors) and returns the info bits. infoLen is the number of
// information bits excluding the tail.
func DecodeRate12(coded []uint8, infoLen int) ([]uint8, error) {
	steps := infoLen + ConstraintLength - 1
	if len(coded) != 2*steps {
		return nil, fmt.Errorf("coding: code word length %d, want %d for %d info bits", len(coded), 2*steps, infoLen)
	}
	const inf = int32(1) << 28
	metric := make([]int32, numStates)
	next := make([]int32, numStates)
	for i := range metric {
		metric[i] = inf
	}
	metric[0] = 0 // encoder starts in the zero state
	// survivors[t][s] is the input bit that led to state s at step t+1,
	// packed with the predecessor state.
	type surv struct {
		prev  uint8
		input uint8
	}
	survivors := make([][]surv, steps)

	for t := 0; t < steps; t++ {
		r0, r1 := coded[2*t], coded[2*t+1]
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
				var bm int32
				if (out>>1)&1 != r0&1 {
					bm++
				}
				if out&1 != r1&1 {
					bm++
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

	// Zero-tail termination: trace back from state 0.
	decoded := make([]uint8, steps)
	state := 0
	for t := steps - 1; t >= 0; t-- {
		sv := survivors[t][state]
		decoded[t] = sv.input
		state = int(sv.prev)
	}
	return decoded[:infoLen], nil
}
