package core

import (
	"fmt"
	"math"
	"testing"

	"flexcore/internal/channel"
	"flexcore/internal/cmatrix"
	"flexcore/internal/constellation"
)

func TestDetectSoftAgreesWithHardDecision(t *testing.T) {
	rng := newRng(401)
	cons := constellation.MustNew(16)
	fc := New(cons, Options{NPE: 32})
	sigma2 := channel.Sigma2FromSNRdB(14, 1)
	for trial := 0; trial < 30; trial++ {
		h := channel.Rayleigh(rng, 6, 6)
		if err := fc.Prepare(h, sigma2); err != nil {
			t.Fatal(err)
		}
		s := randSymbols(rng, cons, 6)
		y := transmit(rng, h, cons, s, sigma2)
		hard := fc.Detect(y)
		soft, llrs := fc.DetectSoft(y, sigma2)
		if !equalInts(hard, soft) {
			t.Fatalf("trial %d: hard %v vs soft-best %v", trial, hard, soft)
		}
		if len(llrs) != 6 {
			t.Fatalf("llrs for %d streams", len(llrs))
		}
		// The LLR signs must match the best symbol's bits.
		bits := make([]uint8, cons.BitsPerSymbol())
		for u := range llrs {
			cons.SymbolBits(soft[u], bits)
			for b, l := range llrs[u] {
				if bits[b] == 0 && l < 0 {
					t.Fatalf("stream %d bit %d: best says 0, LLR %v", u, b, l)
				}
				if bits[b] == 1 && l > 0 {
					t.Fatalf("stream %d bit %d: best says 1, LLR %v", u, b, l)
				}
			}
		}
	}
}

func TestDetectSoftLLRMagnitudes(t *testing.T) {
	// At very high SNR the LLRs must be confidently large (most clamp);
	// at low SNR many must be small.
	rng := newRng(402)
	cons := constellation.MustNew(16)
	fc := New(cons, Options{NPE: 64})

	avgAbs := func(snr float64) float64 {
		sigma2 := channel.Sigma2FromSNRdB(snr, 1)
		var sum float64
		var n int
		for trial := 0; trial < 20; trial++ {
			h := channel.Rayleigh(rng, 4, 4)
			if err := fc.Prepare(h, sigma2); err != nil {
				t.Fatal(err)
			}
			s := randSymbols(rng, cons, 4)
			y := transmit(rng, h, cons, s, sigma2)
			_, llrs := fc.DetectSoft(y, sigma2)
			for _, row := range llrs {
				for _, l := range row {
					sum += math.Abs(l)
					n++
				}
			}
		}
		return sum / float64(n)
	}
	high := avgAbs(30)
	low := avgAbs(5)
	if high <= low {
		t.Fatalf("LLR magnitude not increasing with SNR: %v vs %v", high, low)
	}
	if high < maxLLR/2 {
		t.Fatalf("high-SNR LLRs suspiciously small: %v", high)
	}
}

func TestDetectSoftClamping(t *testing.T) {
	rng := newRng(403)
	cons := constellation.MustNew(16)
	fc := New(cons, Options{NPE: 4}) // tiny list → many one-sided bits
	sigma2 := channel.Sigma2FromSNRdB(12, 1)
	h := channel.Rayleigh(rng, 4, 4)
	if err := fc.Prepare(h, sigma2); err != nil {
		t.Fatal(err)
	}
	s := randSymbols(rng, cons, 4)
	y := transmit(rng, h, cons, s, sigma2)
	_, llrs := fc.DetectSoft(y, sigma2)
	for _, row := range llrs {
		for _, l := range row {
			if math.Abs(l) > maxLLR+1e-12 {
				t.Fatalf("LLR %v beyond clamp", l)
			}
			if math.IsNaN(l) || math.IsInf(l, 0) {
				t.Fatalf("non-finite LLR %v", l)
			}
		}
	}
}

// candidateListSoft is the candidate-list DetectSoft that the per-bit
// minima replaced, kept verbatim as the reference the rewrite must match
// bit for bit: score every path into a list of (indices, distance),
// pick the first least distance, then take per-bit minima over the list
// (the clamped-SIC decision at distance 0 when every path deactivates).
func candidateListSoft(d *FlexCore, y []complex128, sigma2 float64) (best []int, llrs [][]float64) {
	ybar := d.qr.Ybar(y)
	bits := d.cons.BitsPerSymbol()
	type candidate struct {
		idx []int
		ped float64
	}
	cands := make([]candidate, 0, d.ActivePaths())
	idx := make([]int, d.n)
	sym := make([]complex128, d.n)
	for _, p := range d.Paths() {
		ped, ok := d.evalPath(ybar, p.Ranks, idx, sym, math.Inf(1))
		if ok {
			cands = append(cands, candidate{idx: append([]int(nil), idx...), ped: ped})
		}
	}
	if len(cands) == 0 {
		sic := append([]int(nil), d.fallback(ybar)...)
		cands = append(cands, candidate{idx: sic, ped: 0})
	}
	bestI := 0
	for i := range cands {
		if cands[i].ped < cands[bestI].ped {
			bestI = i
		}
	}
	min0 := make([][]float64, d.n)
	min1 := make([][]float64, d.n)
	for u := 0; u < d.n; u++ {
		min0[u] = make([]float64, bits)
		min1[u] = make([]float64, bits)
		for b := 0; b < bits; b++ {
			min0[u][b] = math.Inf(1)
			min1[u][b] = math.Inf(1)
		}
	}
	bitBuf := make([]uint8, bits)
	for _, c := range cands {
		for u := 0; u < d.n; u++ {
			d.cons.SymbolBits(c.idx[u], bitBuf)
			for b := 0; b < bits; b++ {
				if bitBuf[b] == 0 {
					if c.ped < min0[u][b] {
						min0[u][b] = c.ped
					}
				} else if c.ped < min1[u][b] {
					min1[u][b] = c.ped
				}
			}
		}
	}
	permLLR := make([][]float64, d.n)
	for u := 0; u < d.n; u++ {
		permLLR[u] = make([]float64, bits)
		for b := 0; b < bits; b++ {
			var l float64
			switch {
			case math.IsInf(min0[u][b], 1):
				l = -maxLLR
			case math.IsInf(min1[u][b], 1):
				l = maxLLR
			default:
				l = (min1[u][b] - min0[u][b]) / sigma2
				if l > maxLLR {
					l = maxLLR
				}
				if l < -maxLLR {
					l = -maxLLR
				}
			}
			permLLR[u][b] = l
		}
	}
	best = d.qr.UnpermuteInts(cands[bestI].idx)
	llrs = make([][]float64, d.n)
	for k, src := range d.qr.Perm {
		llrs[src] = permLLR[k]
	}
	return best, llrs
}

// TestDetectSoftMatchesCandidateList pins DetectSoft's decisions and
// every LLR bit to the candidate-list reference over 216 seeded
// channels per leg: N_PE ∈ {1, 4, 32}, default and strict deactivation,
// both backends. Each channel also detects one vector pushed far outside
// the constellation, so the strict legs cover the all-deactivated
// fallback too.
func TestDetectSoftMatchesCandidateList(t *testing.T) {
	cons := constellation.MustNew(16)
	for _, bb := range benchBackends {
		for _, npe := range []int{1, 4, 32} {
			for _, strict := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/npe%d/strict=%v", bb.name, npe, strict), func(t *testing.T) {
					rng := newRng(uint64(4100 + npe))
					fc := New(cons, Options{NPE: npe, StrictDeactivation: strict, Backend: bb.backend})
					var fallbacks int64
					for trial := 0; trial < 216; trial++ {
						nt := 2 + trial%5
						sigma2 := channel.Sigma2FromSNRdB(float64(4+trial%20), 1)
						h := channel.Rayleigh(rng, nt+trial%2, nt)
						if err := fc.Prepare(h, sigma2); err != nil {
							t.Fatal(err)
						}
						y := transmit(rng, h, cons, randSymbols(rng, cons, nt), sigma2)
						far := make([]complex128, len(y))
						for i, v := range y {
							far[i] = 40 * v
						}
						for _, y := range [][]complex128{y, far} {
							before := fc.FallbackDetections()
							got, llrs := fc.DetectSoft(y, sigma2)
							fallbacks += fc.FallbackDetections() - before
							want, wantLLR := candidateListSoft(fc, y, sigma2)
							if !equalInts(got, want) {
								t.Fatalf("trial %d: best %v, candidate list %v", trial, got, want)
							}
							for u := range wantLLR {
								for b, w := range wantLLR[u] {
									if math.Float64bits(llrs[u][b]) != math.Float64bits(w) {
										t.Fatalf("trial %d stream %d bit %d: LLR %v, candidate list %v", trial, u, b, llrs[u][b], w)
									}
								}
							}
						}
					}
					if strict && fallbacks == 0 {
						t.Fatal("no vector fell back: the strict leg exercises no fallback")
					}
				})
			}
		}
	}
}

// TestDetectSoftCountsFallback: a vector that deactivates every path
// under strict deactivation resolves through the clamped-SIC fallback
// in DetectSoft as in Detect, and counts in FallbackDetections.
func TestDetectSoftCountsFallback(t *testing.T) {
	cons := constellation.MustNew(16)
	y := []complex128{complex(100, 100), complex(-100, 100)}
	want := []int{cons.Slice(y[0]), cons.Slice(y[1])}
	for _, bb := range benchBackends {
		fc := New(cons, Options{NPE: 4, StrictDeactivation: true, Backend: bb.backend})
		if err := fc.Prepare(cmatrix.Identity(2), 0.01); err != nil {
			t.Fatal(err)
		}
		got, llrs := fc.DetectSoft(y, 0.01)
		if n := fc.FallbackDetections(); n != 1 {
			t.Fatalf("%s: fallback counter %d after one all-deactivated DetectSoft, want 1", bb.name, n)
		}
		if !equalInts(got, want) {
			t.Fatalf("%s: fallback got %v, want %v", bb.name, got, want)
		}
		for u := range llrs {
			for b, l := range llrs[u] {
				if math.Abs(l) != maxLLR {
					t.Fatalf("%s: stream %d bit %d: LLR %v, want saturated ±%v", bb.name, u, b, l, maxLLR)
				}
			}
		}
	}
}
