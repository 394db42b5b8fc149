package coding

import "fmt"

// Interleaver is the 802.11 per-OFDM-symbol two-permutation block
// interleaver. ncbps is the number of coded bits per OFDM symbol for one
// spatial stream and nbpsc the number of coded bits per subcarrier
// (log2 of the constellation order).
type Interleaver struct {
	ncbps int
	fwd   []int // fwd[k] = position after interleaving of input bit k
	inv   []int
}

// NewInterleaver builds the interleaver for the given symbol geometry.
// ncbps must be a multiple of 16 (true for 48 data subcarriers and all
// supported constellations).
func NewInterleaver(ncbps, nbpsc int) (*Interleaver, error) {
	if ncbps <= 0 || ncbps%16 != 0 {
		return nil, fmt.Errorf("coding: NCBPS %d must be a positive multiple of 16", ncbps)
	}
	if nbpsc <= 0 || ncbps%nbpsc != 0 {
		return nil, fmt.Errorf("coding: NBPSC %d incompatible with NCBPS %d", nbpsc, ncbps)
	}
	s := nbpsc / 2
	if s < 1 {
		s = 1
	}
	it := &Interleaver{ncbps: ncbps, fwd: make([]int, ncbps), inv: make([]int, ncbps)}
	for k := 0; k < ncbps; k++ {
		// First permutation: adjacent coded bits map onto non-adjacent
		// subcarriers.
		i := (ncbps/16)*(k%16) + k/16
		// Second permutation: adjacent coded bits alternate between less
		// and more significant constellation bits.
		j := s*(i/s) + (i+ncbps-16*i/ncbps)%s
		it.fwd[k] = j
		it.inv[j] = k
	}
	return it, nil
}

// Interleave permutes one NCBPS-sized block.
func (it *Interleaver) Interleave(in []uint8) []uint8 {
	if len(in) != it.ncbps {
		panic(fmt.Sprintf("coding: interleave block %d, want %d", len(in), it.ncbps))
	}
	out := make([]uint8, it.ncbps)
	for k, v := range in {
		out[it.fwd[k]] = v
	}
	return out
}

// DeinterleaveLLRs inverts Interleave for soft values (one LLR per coded
// bit position).
func (it *Interleaver) DeinterleaveLLRs(in []float64) []float64 {
	if len(in) != it.ncbps {
		panic(fmt.Sprintf("coding: deinterleave block %d, want %d", len(in), it.ncbps))
	}
	out := make([]float64, it.ncbps)
	for j, v := range in {
		out[it.inv[j]] = v
	}
	return out
}
