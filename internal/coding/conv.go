// Package coding implements the 802.11 forward-error-correction substrate
// used by the FlexCore evaluation: the rate-1/2 constraint-length-7
// convolutional code (g0 = 133, g1 = 171 octal) with zero-tail
// termination, its Viterbi decoder over log-likelihood ratios (hard
// decisions enter as ±1 LLRs), and the 802.11 two-permutation block
// interleaver.
package coding

import "math/bits"

const (
	// ConstraintLength of the 802.11 convolutional code.
	ConstraintLength = 7
	// numStates of the encoder shift register.
	numStates = 1 << (ConstraintLength - 1)
	// G0 and G1 are the industry-standard generator polynomials
	// (133 and 171 octal), tap 0 = current input bit.
	G0 = 0o133
	G1 = 0o171
)

// Bit values used throughout the package.
const (
	Zero uint8 = 0
	One  uint8 = 1
)

// EncodeRate12 convolutionally encodes info with the 802.11 rate-1/2 code
// and zero-tail termination: ConstraintLength−1 zero bits are appended so
// the encoder ends in the all-zero state. The output holds
// 2·(len(info)+6) bits.
func EncodeRate12(info []uint8) []uint8 {
	out := make([]uint8, 0, 2*(len(info)+ConstraintLength-1))
	state := 0
	emit := func(b uint8) {
		reg := int(b&1)<<(ConstraintLength-1) | state
		out = append(out,
			uint8(bits.OnesCount(uint(reg&G0))&1),
			uint8(bits.OnesCount(uint(reg&G1))&1))
		state = reg >> 1
	}
	for _, b := range info {
		emit(b)
	}
	for i := 0; i < ConstraintLength-1; i++ {
		emit(0)
	}
	return out
}

// branchOutputs[state][input] packs the two coded bits (g0<<1 | g1)
// produced when `input` enters the register at `state`.
var branchOutputs [numStates][2]uint8

func init() {
	for s := 0; s < numStates; s++ {
		for in := 0; in < 2; in++ {
			reg := in<<(ConstraintLength-1) | s
			o0 := uint8(bits.OnesCount(uint(reg&G0)) & 1)
			o1 := uint8(bits.OnesCount(uint(reg&G1)) & 1)
			branchOutputs[s][in] = o0<<1 | o1
		}
	}
}
