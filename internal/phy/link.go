package phy

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand/v2"

	"flexcore/internal/coding"
	"flexcore/internal/constellation"
)

// LinkConfig describes the per-user transmit chain geometry.
type LinkConfig struct {
	// Users is the number of single-antenna uplink users (Nt).
	Users int
	// APAntennas is the number of AP receive antennas (Nr ≥ Users).
	APAntennas int
	// Constellation carries the per-stream QAM alphabet.
	Constellation *constellation.Constellation
	// Subcarriers is the number of simulated data subcarriers. 48 is the
	// full 802.11 symbol; smaller values (with NCBPS still a multiple of
	// 16) cut simulation cost without changing per-subcarrier statistics.
	Subcarriers int
	// OFDMSymbols is the packet length in OFDM symbols.
	OFDMSymbols int
}

// Validate checks the geometry and returns derived sizes.
func (c *LinkConfig) Validate() error {
	if c.Users < 1 || c.APAntennas < c.Users {
		return fmt.Errorf("phy: invalid MIMO geometry %d users × %d antennas", c.Users, c.APAntennas)
	}
	if c.Constellation == nil {
		return fmt.Errorf("phy: constellation required")
	}
	if c.Subcarriers < 1 || c.OFDMSymbols < 1 {
		return fmt.Errorf("phy: need positive subcarriers and OFDM symbols")
	}
	if c.ncbps()%16 != 0 {
		return fmt.Errorf("phy: NCBPS %d not a multiple of 16 (choose a different subcarrier count)", c.ncbps())
	}
	if c.PayloadBits() < 8 {
		return fmt.Errorf("phy: packet too short for CRC and tail")
	}
	return nil
}

// ncbps is the coded bits per OFDM symbol per stream.
func (c *LinkConfig) ncbps() int { return c.Subcarriers * c.Constellation.BitsPerSymbol() }

// codedBitsPerPacket is the transmitted coded bits per user per packet.
func (c *LinkConfig) codedBitsPerPacket() int { return c.ncbps() * c.OFDMSymbols }

// codeRate is the rate of the link's one code, the paper's rate-1/2
// convolutional code (no puncturing).
const codeRate = 0.5

// motherPairs is the number of rate-1/2 encoder output pairs that fill
// one packet.
func (c *LinkConfig) motherPairs() int { return c.codedBitsPerPacket() / 2 }

// PayloadBits is the information payload per user per packet, excluding
// the 32-bit CRC and the 6-bit zero tail.
func (c *LinkConfig) PayloadBits() int {
	return c.motherPairs() - (coding.ConstraintLength - 1) - 32
}

// txPacket is one user's encoded packet.
type txPacket struct {
	payload []uint8 // PayloadBits information bits
	symbols [][]int // [ofdmSymbol][subcarrier] constellation indices
}

// buildTxPacket runs the transmit chain for one user.
func (c *LinkConfig) buildTxPacket(rng *rand.Rand, il *coding.Interleaver) txPacket {
	payload := make([]uint8, c.PayloadBits())
	for i := range payload {
		payload[i] = uint8(rng.IntN(2))
	}
	info := appendCRC(payload)
	stream := coding.EncodeRate12(info)
	// Interleave per OFDM symbol and map to constellation symbols.
	bps := c.Constellation.BitsPerSymbol()
	symbols := make([][]int, c.OFDMSymbols)
	tx := txPacket{payload: payload}
	for s := 0; s < c.OFDMSymbols; s++ {
		block := il.Interleave(stream[s*c.ncbps() : (s+1)*c.ncbps()])
		symbols[s] = make([]int, c.Subcarriers)
		for k := 0; k < c.Subcarriers; k++ {
			symbols[s][k] = c.Constellation.SymbolFromBits(block[k*bps : (k+1)*bps])
		}
	}
	tx.symbols = symbols
	return tx
}

// decodeRxPacket runs the receive chain on one user's LLR rows
// ([ofdmSym][ncbps], hard decisions as hardLLRs): it deinterleaves them,
// Viterbi-decodes and reports packet success (CRC match) and payload bit
// errors.
func (c *LinkConfig) decodeRxPacket(rxLLR [][]float64, tx txPacket, il *coding.Interleaver) (ok bool, bitErrors int, err error) {
	stream := make([]float64, 0, c.codedBitsPerPacket())
	for s := 0; s < c.OFDMSymbols; s++ {
		stream = append(stream, il.DeinterleaveLLRs(rxLLR[s])...)
	}
	info, err := coding.DecodeRate12Soft(stream, c.PayloadBits()+32)
	if err != nil {
		return false, 0, err
	}
	payload, crcOK := splitCRC(info)
	for i := range tx.payload {
		if payload[i] != tx.payload[i] {
			bitErrors++
		}
	}
	return crcOK && bitErrors == 0, bitErrors, nil
}

// hardLLRs writes the bits of the decided symbol sym into dst
// (len(dst) = bits per symbol) as certain LLRs: +1 for a 0 bit, −1 for a
// 1 bit. On them the Viterbi decoder is the hard-decision decoder.
func hardLLRs(cons *constellation.Constellation, sym int, dst []float64) {
	var bits [10]uint8 // 1024-QAM, the largest order
	for i, b := range cons.SymbolBits(sym, bits[:len(dst)]) {
		dst[i] = float64(1 - 2*int(b))
	}
}

// appendCRC appends the IEEE CRC-32 of the payload bits (packed MSB
// first) as 32 trailing bits.
func appendCRC(payload []uint8) []uint8 {
	crc := crc32.ChecksumIEEE(packBits(payload))
	out := make([]uint8, len(payload)+32)
	copy(out, payload)
	var word [4]byte
	binary.BigEndian.PutUint32(word[:], crc)
	for i := 0; i < 32; i++ {
		out[len(payload)+i] = (word[i/8] >> (7 - i%8)) & 1
	}
	return out
}

// splitCRC verifies and strips the trailing CRC-32.
func splitCRC(info []uint8) (payload []uint8, ok bool) {
	n := len(info) - 32
	payload = info[:n]
	want := crc32.ChecksumIEEE(packBits(payload))
	var got uint32
	for i := 0; i < 32; i++ {
		got = got<<1 | uint32(info[n+i]&1)
	}
	return payload, got == want
}

// packBits packs 0/1 bits into bytes, MSB first, zero-padded.
func packBits(bits []uint8) []byte {
	out := make([]byte, (len(bits)+7)/8)
	for i, b := range bits {
		if b&1 == 1 {
			out[i/8] |= 1 << (7 - i%8)
		}
	}
	return out
}
