// Package ofdm fixes the 802.11-style OFDM numerology used throughout the
// FlexCore evaluation (20 MHz, 64-point FFT, 48 data subcarriers, 4 µs
// symbols) and the derived PHY-rate and network-throughput arithmetic.
package ofdm

// 802.11 OFDM constants for a 20 MHz channel.
const (
	// NFFT is the FFT size.
	NFFT = 64
	// DataSubcarriers is the number of payload-bearing subcarriers.
	DataSubcarriers = 48
	// PilotSubcarriers carry training, not payload.
	PilotSubcarriers = 4
	// SymbolDuration is the OFDM symbol duration including the 0.8 µs
	// guard interval, in seconds.
	SymbolDuration = 4e-6
)

// SymbolsPerSecond is the OFDM symbol rate (250 k symbols/s at 20 MHz).
const SymbolsPerSecond = 1 / SymbolDuration

// DataSubcarrierIndices returns the FFT bin indices of the 48 data
// subcarriers in the 802.11 layout: occupied bins ±1…±26 minus the pilot
// bins ±7 and ±21, with negative frequencies mapped to NFFT−|k|.
func DataSubcarrierIndices() []int {
	isPilot := func(k int) bool { return k == 7 || k == 21 }
	idx := make([]int, 0, DataSubcarriers)
	for k := 1; k <= 26; k++ {
		if !isPilot(k) {
			idx = append(idx, k)
		}
	}
	for k := -26; k <= -1; k++ {
		if !isPilot(-k) {
			idx = append(idx, NFFT+k)
		}
	}
	return idx
}

// PHYRate returns the aggregate information bit rate in bit/s for nt
// spatial streams carrying bitsPerSymbol-bit constellation symbols at the
// given code rate, with every data subcarrier loaded.
func PHYRate(nt, bitsPerSymbol int, codeRate float64) float64 {
	return float64(nt) * float64(bitsPerSymbol) * codeRate * DataSubcarriers * SymbolsPerSecond
}

// NetworkThroughput returns the goodput in bit/s after packet losses: the
// paper's "network throughput" metric is PHY rate × (1 − PER).
func NetworkThroughput(nt, bitsPerSymbol int, codeRate, per float64) float64 {
	return PHYRate(nt, bitsPerSymbol, codeRate) * (1 - per)
}

// VectorsPerSecond returns the number of received MIMO symbol vectors the
// AP must detect per second (data subcarriers × OFDM symbol rate).
func VectorsPerSecond() float64 { return DataSubcarriers * SymbolsPerSecond }
