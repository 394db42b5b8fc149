package ofdm

import (
	"math"
	"testing"
)

func TestDataSubcarrierIndices(t *testing.T) {
	idx := DataSubcarrierIndices()
	if len(idx) != DataSubcarriers {
		t.Fatalf("got %d indices, want %d", len(idx), DataSubcarriers)
	}
	seen := map[int]bool{}
	for _, k := range idx {
		if k <= 0 || k >= NFFT {
			t.Fatalf("index %d out of FFT range", k)
		}
		if seen[k] {
			t.Fatalf("duplicate index %d", k)
		}
		seen[k] = true
		// Pilot and DC bins must not appear.
		for _, p := range []int{0, 7, 21, NFFT - 7, NFFT - 21} {
			if k == p {
				t.Fatalf("pilot/DC bin %d used for data", k)
			}
		}
	}
}

func TestPHYRateKnownValues(t *testing.T) {
	// 12 users × 64-QAM × rate-1/2 × 48 subcarriers × 250k symbols/s = 432 Mbit/s.
	if got := PHYRate(12, 6, 0.5); math.Abs(got-432e6) > 1 {
		t.Fatalf("12×64QAM rate = %v", got)
	}
	// 8 users × 16-QAM × 1/2 = 192 Mbit/s.
	if got := PHYRate(8, 4, 0.5); math.Abs(got-192e6) > 1 {
		t.Fatalf("8×16QAM rate = %v", got)
	}
}

func TestNetworkThroughput(t *testing.T) {
	full := PHYRate(8, 4, 0.5)
	if got := NetworkThroughput(8, 4, 0.5, 0); got != full {
		t.Fatal("PER=0 must give full rate")
	}
	if got := NetworkThroughput(8, 4, 0.5, 1); got != 0 {
		t.Fatal("PER=1 must give zero")
	}
	if got := NetworkThroughput(8, 4, 0.5, 0.1); math.Abs(got-0.9*full) > 1e-6 {
		t.Fatal("PER=0.1 must give 90%")
	}
}

func TestVectorsPerSecond(t *testing.T) {
	if got := VectorsPerSecond(); math.Abs(got-12e6) > 1 {
		t.Fatalf("vectors/s = %v, want 12M", got)
	}
}
