package coding

import "testing"

func TestSoftViterbiCleanRoundTrip(t *testing.T) {
	rng := newRng(91)
	for _, n := range []int{1, 64, 300} {
		info := randBits(rng, n)
		coded := EncodeRate12(info)
		dec, err := DecodeRate12Soft(hardToLLR(coded, 4), n)
		if err != nil {
			t.Fatal(err)
		}
		for i := range info {
			if dec[i] != info[i] {
				t.Fatalf("n=%d: soft round trip failed at %d", n, i)
			}
		}
	}
}

func TestSoftViterbiUsesReliability(t *testing.T) {
	// Construct a stream with errors placed on LOW-confidence positions:
	// the soft decoder must recover where hard decisions (±1 LLRs, which
	// weigh all positions equally) fail.
	rng := newRng(92)
	info := randBits(rng, 200)
	coded := EncodeRate12(info)
	llrs := hardToLLR(coded, 8)
	hard := append([]uint8(nil), coded...)
	flips := 0
	for i := 10; i < len(coded) && flips < 40; i += 9 {
		// Flip the bit but mark it as very unreliable in the soft stream.
		hard[i] ^= 1
		if hard[i] == 1 {
			llrs[i] = -0.05
		} else {
			llrs[i] = 0.05
		}
		flips++
	}
	decSoft, err := DecodeRate12Soft(llrs, len(info))
	if err != nil {
		t.Fatal(err)
	}
	softErrs := 0
	for i := range info {
		if decSoft[i] != info[i] {
			softErrs++
		}
	}
	decHard, err := DecodeRate12Soft(hardToLLR(hard, 1), len(info))
	if err != nil {
		t.Fatal(err)
	}
	hardErrs := 0
	for i := range info {
		if decHard[i] != info[i] {
			hardErrs++
		}
	}
	t.Logf("soft errors %d, hard errors %d", softErrs, hardErrs)
	if softErrs > hardErrs {
		t.Fatalf("soft decoding (%d errors) worse than hard (%d)", softErrs, hardErrs)
	}
	if softErrs != 0 {
		t.Fatalf("soft decoder failed to exploit reliability: %d errors", softErrs)
	}
}

func TestSoftViterbiZeroLLRsAreErasures(t *testing.T) {
	rng := newRng(93)
	info := randBits(rng, 150)
	coded := EncodeRate12(info)
	llrs := hardToLLR(coded, 5)
	for i := 0; i < len(llrs); i += 4 {
		llrs[i] = 0
	}
	dec, err := DecodeRate12Soft(llrs, len(info))
	if err != nil {
		t.Fatal(err)
	}
	for i := range info {
		if dec[i] != info[i] {
			t.Fatalf("zero-LLR stream not recovered at %d", i)
		}
	}
}

func TestSoftViterbiLengthValidation(t *testing.T) {
	if _, err := DecodeRate12Soft(make([]float64, 5), 100); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

func TestInterleaverLLRRoundTrip(t *testing.T) {
	it, err := NewInterleaver(192, 4)
	if err != nil {
		t.Fatal(err)
	}
	rng := newRng(95)
	in := make([]float64, 192)
	for i := range in {
		in[i] = rng.NormFloat64()
	}
	// Interleave the positions, then check that the LLR deinterleaver
	// inverts the same permutation.
	shuffled := make([]float64, 192)
	for k := range in {
		shuffled[it.fwd[k]] = in[k]
	}
	back := it.DeinterleaveLLRs(shuffled)
	for i := range in {
		if back[i] != in[i] {
			t.Fatalf("LLR deinterleave mismatch at %d", i)
		}
	}
}

// hardToLLR converts hard bits to LLRs with the given confidence
// magnitude.
func hardToLLR(bits []uint8, confidence float64) []float64 {
	llrs := make([]float64, len(bits))
	for i, b := range bits {
		llrs[i] = confidence
		if b == One {
			llrs[i] = -confidence
		}
	}
	return llrs
}
