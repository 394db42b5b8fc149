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
		ok, bitErrs, err := link.decodeRxPacket(tx.symbols, tx, il)
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
	ok, _, err := link.decodeRxPacket(rx, tx, il)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("heavily corrupted packet accepted")
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
