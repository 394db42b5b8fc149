package phy

import (
	"testing"

	"flexcore/internal/channel"
	"flexcore/internal/coding"
	"flexcore/internal/constellation"
)

// smallLink is a fast 2×2 4-QAM geometry for unit tests.
func smallLink() LinkConfig {
	return LinkConfig{
		Users:         2,
		APAntennas:    2,
		Constellation: constellation.MustNew(4),
		Subcarriers:   8, // NCBPS = 16
		OFDMSymbols:   8,
	}
}

func TestLinkConfigValidate(t *testing.T) {
	good := smallLink()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.Users = 3 // more users than antennas
	if err := bad.Validate(); err == nil {
		t.Fatal("users > antennas accepted")
	}
	bad = good
	bad.Subcarriers = 7 // NCBPS = 14, not a multiple of 16
	if err := bad.Validate(); err == nil {
		t.Fatal("bad NCBPS accepted")
	}
	bad = good
	bad.OFDMSymbols = 1 // payload would be negative
	if err := bad.Validate(); err == nil {
		t.Fatal("packet too short accepted")
	}
	bad = good
	bad.Constellation = nil
	if err := bad.Validate(); err == nil {
		t.Fatal("nil constellation accepted")
	}
}

func TestPayloadBitsArithmetic(t *testing.T) {
	c := smallLink()
	// 8 subcarriers × 2 bits × 8 symbols = 128 coded bits → 64 pairs →
	// 64 − 6 (tail) − 32 (CRC) = 26 payload bits.
	if got := c.PayloadBits(); got != 26 {
		t.Fatalf("payload bits %d, want 26", got)
	}
}

func TestCRCRoundTrip(t *testing.T) {
	rng := channel.NewRNG(301)
	for _, n := range []int{8, 26, 100, 1000} {
		payload := make([]uint8, n)
		for i := range payload {
			payload[i] = uint8(rng.IntN(2))
		}
		info := appendCRC(payload)
		if len(info) != n+32 {
			t.Fatalf("CRC append length %d", len(info))
		}
		got, ok := splitCRC(info)
		if !ok {
			t.Fatal("clean CRC rejected")
		}
		for i := range payload {
			if got[i] != payload[i] {
				t.Fatal("payload corrupted")
			}
		}
		// Any single flipped bit must fail the check.
		for _, pos := range []int{0, n / 2, n + 5, n + 31} {
			mut := append([]uint8(nil), info...)
			mut[pos] ^= 1
			if _, ok := splitCRC(mut); ok {
				t.Fatalf("flip at %d not detected", pos)
			}
		}
	}
}

func TestPackBits(t *testing.T) {
	got := packBits([]uint8{1, 0, 1, 0, 0, 0, 0, 1, 1})
	if len(got) != 2 || got[0] != 0xA1 || got[1] != 0x80 {
		t.Fatalf("packBits wrong: %x", got)
	}
}

func TestTxRxChainLoopback(t *testing.T) {
	// Without channel or noise, decoding the transmitted symbols must
	// recover every packet exactly.
	link := smallLink()
	il, err := coding.NewInterleaver(link.ncbps(), link.Constellation.BitsPerSymbol())
	if err != nil {
		t.Fatal(err)
	}
	rng := channel.NewRNG(302)
	for trial := 0; trial < 20; trial++ {
		tx := link.buildTxPacket(rng, il)
		ok, bitErrs, err := link.decodeRxPacket(hardRows(link, tx.symbols), tx, il)
		if err != nil {
			t.Fatal(err)
		}
		if !ok || bitErrs != 0 {
			t.Fatalf("trial %d: loopback failed (ok=%v errs=%d)", trial, ok, bitErrs)
		}
	}
}

func TestTxRxChainCorruption(t *testing.T) {
	// Corrupting many detected symbols must produce a packet error.
	link := smallLink()
	il, err := coding.NewInterleaver(link.ncbps(), link.Constellation.BitsPerSymbol())
	if err != nil {
		t.Fatal(err)
	}
	rng := channel.NewRNG(303)
	tx := link.buildTxPacket(rng, il)
	rx := make([][]int, len(tx.symbols))
	for s := range rx {
		rx[s] = append([]int(nil), tx.symbols[s]...)
		for k := 0; k < len(rx[s]); k += 2 {
			rx[s][k] = (rx[s][k] + 1) % link.Constellation.Size()
		}
	}
	ok, _, err := link.decodeRxPacket(hardRows(link, rx), tx, il)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("heavily corrupted packet accepted")
	}
}

// TestHardDecisionsDecodeHammingML pins the hard-decision receive chain
// (decided symbols through hardLLRs into the Viterbi decoder) to a
// brute-force oracle: for short info words with random bit flips, the
// decoded code word is at the least Hamming distance from the received
// word of all 2ⁿ code words.
func TestHardDecisionsDecodeHammingML(t *testing.T) {
	cons := constellation.MustNew(4) // 2 bits per symbol: one symbol per coded pair
	rng := channel.NewRNG(305)
	hamming := func(a, b []uint8) int {
		d := 0
		for i := range a {
			if a[i] != b[i] {
				d++
			}
		}
		return d
	}
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.IntN(8)
		info := make([]uint8, n)
		for i := range info {
			info[i] = uint8(rng.IntN(2))
		}
		rx := coding.EncodeRate12(info)
		flip := 0.3 * rng.Float64()
		for i := range rx {
			if rng.Float64() < flip {
				rx[i] ^= 1
			}
		}
		llrs := make([]float64, len(rx))
		for i := 0; i < len(rx); i += 2 {
			hardLLRs(cons, cons.SymbolFromBits(rx[i:i+2]), llrs[i:i+2])
		}
		dec, err := coding.DecodeRate12Soft(llrs, n)
		if err != nil {
			t.Fatal(err)
		}
		best := len(rx)
		word := make([]uint8, n)
		for w := 0; w < 1<<n; w++ {
			for i := range word {
				word[i] = uint8(w>>i) & 1
			}
			best = min(best, hamming(coding.EncodeRate12(word), rx))
		}
		if got := hamming(coding.EncodeRate12(dec), rx); got != best {
			t.Fatalf("trial %d (n=%d): decoded code word at Hamming distance %d, the nearest is at %d", trial, n, got, best)
		}
	}
}

func TestTxPacketsDiffer(t *testing.T) {
	link := smallLink()
	il, _ := coding.NewInterleaver(link.ncbps(), link.Constellation.BitsPerSymbol())
	rng := channel.NewRNG(304)
	a := link.buildTxPacket(rng, il)
	b := link.buildTxPacket(rng, il)
	same := true
	for i := range a.payload {
		if a.payload[i] != b.payload[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("consecutive packets carry identical payloads")
	}
}

// hardRows turns one user's decided symbols ([ofdmSym][subcarrier]) into
// the receive chain's LLR rows ([ofdmSym][ncbps]) through hardLLRs.
func hardRows(link LinkConfig, syms [][]int) [][]float64 {
	bps := link.Constellation.BitsPerSymbol()
	rows := make([][]float64, len(syms))
	for s, row := range syms {
		rows[s] = make([]float64, len(row)*bps)
		for k, sym := range row {
			hardLLRs(link.Constellation, sym, rows[s][k*bps:(k+1)*bps])
		}
	}
	return rows
}
