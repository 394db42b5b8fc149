package coding

import (
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func newRng(seed uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, seed+7)) }

func randBits(rng *rand.Rand, n int) []uint8 {
	b := make([]uint8, n)
	for i := range b {
		b[i] = uint8(rng.IntN(2))
	}
	return b
}

func TestEncodeKnownVector(t *testing.T) {
	// A single 1 bit through the zero-state encoder must emit the
	// generator polynomials' impulse response.
	got := EncodeRate12([]uint8{1})
	// Step 0: reg = 1000000b; g0 taps (1011011) → bit6 set → 1;
	// g1 (1111001) → bit6 set → 1.
	if got[0] != 1 || got[1] != 1 {
		t.Fatalf("impulse start %v", got[:2])
	}
	if len(got) != 2*(1+ConstraintLength-1) {
		t.Fatalf("impulse length %d", len(got))
	}
}

func TestEncodeLength(t *testing.T) {
	for _, n := range []int{0, 1, 10, 100} {
		if got := len(EncodeRate12(make([]uint8, n))); got != 2*(n+6) {
			t.Fatalf("n=%d: coded length %d", n, got)
		}
	}
}

func TestViterbiNoErrors(t *testing.T) {
	rng := newRng(81)
	for _, n := range []int{1, 17, 64, 512} {
		info := randBits(rng, n)
		dec, err := DecodeRate12Soft(hardToLLR(EncodeRate12(info), 1), n)
		if err != nil {
			t.Fatal(err)
		}
		for i := range info {
			if dec[i] != info[i] {
				t.Fatalf("n=%d: bit %d differs", n, i)
			}
		}
	}
}

func TestViterbiCorrectsScatteredErrors(t *testing.T) {
	// The free distance of the (133,171) code is 10, so it corrects up to
	// 4 errors in a constraint span; scattered single errors must always
	// be corrected.
	rng := newRng(82)
	info := randBits(rng, 256)
	coded := EncodeRate12(info)
	for i := 0; i < len(coded); i += 40 {
		coded[i] ^= 1
	}
	dec, err := DecodeRate12Soft(hardToLLR(coded, 1), len(info))
	if err != nil {
		t.Fatal(err)
	}
	for i := range info {
		if dec[i] != info[i] {
			t.Fatalf("scattered errors not corrected at bit %d", i)
		}
	}
}

func TestViterbiBurstBeyondCapacityFails(t *testing.T) {
	// A long burst must defeat the decoder — guards against a decoder
	// that accidentally ignores its input.
	rng := newRng(83)
	info := randBits(rng, 128)
	coded := EncodeRate12(info)
	for i := 40; i < 90; i++ {
		coded[i] ^= 1
	}
	dec, err := DecodeRate12Soft(hardToLLR(coded, 1), len(info))
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range info {
		if dec[i] != info[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("decoder claimed to correct an uncorrectable burst")
	}
}

func TestViterbiLengthValidation(t *testing.T) {
	if _, err := DecodeRate12Soft(hardToLLR(make([]uint8, 10), 1), 100); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

func TestRoundTripQuick(t *testing.T) {
	f := func(seed uint64) bool {
		rng := newRng(seed)
		n := 1 + int(seed%200)
		info := randBits(rng, n)
		dec, err := DecodeRate12Soft(hardToLLR(EncodeRate12(info), 1), n)
		if err != nil {
			return false
		}
		for i := range info {
			if dec[i] != info[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestInterleaverBijective(t *testing.T) {
	for _, tc := range []struct{ ncbps, nbpsc int }{
		{96, 2}, {192, 4}, {288, 6}, {384, 8},
	} {
		it, err := NewInterleaver(tc.ncbps, tc.nbpsc)
		if err != nil {
			t.Fatal(err)
		}
		rng := newRng(uint64(tc.ncbps))
		in := randBits(rng, tc.ncbps)
		out := it.Interleave(in)
		back := it.DeinterleaveLLRs(hardToLLR(out, 1))
		want := hardToLLR(in, 1)
		for i := range want {
			if back[i] != want[i] {
				t.Fatalf("NCBPS=%d: round trip failed at %d", tc.ncbps, i)
			}
		}
		// The permutation must actually move bits.
		moved := 0
		for k, j := range it.fwd {
			if k != j {
				moved++
			}
		}
		if moved < tc.ncbps/2 {
			t.Fatalf("NCBPS=%d: permutation too close to identity (%d moved)", tc.ncbps, moved)
		}
	}
}

func TestInterleaverSpreadsAdjacentBits(t *testing.T) {
	// Adjacent coded bits must land on different subcarriers — the point
	// of the first permutation.
	it, err := NewInterleaver(288, 6) // 48 subcarriers × 64-QAM
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k+1 < 288; k++ {
		scA := it.fwd[k] / 6
		scB := it.fwd[k+1] / 6
		if scA == scB {
			t.Fatalf("adjacent bits %d,%d on same subcarrier %d", k, k+1, scA)
		}
	}
}

func TestInterleaverValidation(t *testing.T) {
	if _, err := NewInterleaver(100, 2); err == nil {
		t.Fatal("non-multiple-of-16 accepted")
	}
	if _, err := NewInterleaver(96, 5); err == nil {
		t.Fatal("incompatible NBPSC accepted")
	}
	if _, err := NewInterleaver(0, 1); err == nil {
		t.Fatal("zero NCBPS accepted")
	}
}

func BenchmarkViterbi1024(b *testing.B) {
	rng := newRng(86)
	info := randBits(rng, 1024)
	llrs := hardToLLR(EncodeRate12(info), 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeRate12Soft(llrs, len(info)); err != nil {
			b.Fatal(err)
		}
	}
}
