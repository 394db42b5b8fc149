package conformance

import (
	"testing"

	"flexcore/internal/detector"
)

// FuzzDetect is the end-to-end fuzz target of the conformance harness:
// arbitrary seeds, geometries and SNRs drive every detector in the
// library through Prepare/Detect and check the structural contract —
// the decision has one valid constellation index per transmit stream,
// no detector panics, and on small search spaces the sphere decoder's
// decision scores within tolerance of the exhaustive-ML oracle.
func FuzzDetect(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint8(2), uint8(0), int8(10))
	f.Add(uint64(2), uint8(1), uint8(3), uint8(1), int8(16))
	f.Add(uint64(3), uint8(2), uint8(2), uint8(2), int8(22))
	f.Add(uint64(4), uint8(0), uint8(4), uint8(0), int8(-5))
	f.Add(uint64(5), uint8(1), uint8(1), uint8(3), int8(40))
	f.Fuzz(func(t *testing.T, seed uint64, mSel, ntRaw, extraNr uint8, snrRaw int8) {
		orders := []int{4, 16, 64}
		m := orders[int(mSel)%len(orders)]
		nt := int(ntRaw)%4 + 1
		nr := nt + int(extraNr)%3
		snr := float64(int(snrRaw)%46 - 5) // −5 … 40 dB

		c := NewCase(seed, m, nt, nr, snr, 2)
		oracleOK := c.Hypotheses() <= 4096

		dets := allDetectors(c)
		for _, det := range dets {
			if err := det.Prepare(c.H, c.Sigma2); err != nil {
				t.Fatalf("%s: Prepare: %v", det.Name(), err)
			}
		}
		for v := range c.Y {
			var oracle *OracleResult
			if oracleOK {
				r, err := ExhaustiveML(c.H, c.Y[v], c.Cons)
				if err != nil {
					t.Fatal(err)
				}
				oracle = &r
			}
			for _, det := range dets {
				got := det.Detect(c.Y[v])
				if len(got) != nt {
					t.Fatalf("%s: %d indices for %d streams", det.Name(), len(got), nt)
				}
				for i, idx := range got {
					if idx < 0 || idx >= m {
						t.Fatalf("%s stream %d: index %d out of range [0,%d)", det.Name(), i, idx, m)
					}
				}
				if oracle != nil {
					if d := c.Score(v, got); d < oracle.Dist*(1-distTol)-distTol {
						t.Fatalf("%s beat the exhaustive oracle: %.12g < %.12g", det.Name(), d, oracle.Dist)
					}
					if _, isSphere := det.(*detector.Sphere); isSphere {
						if d := c.Score(v, got); d > oracle.Dist*(1+distTol)+distTol {
							t.Fatalf("sphere dist %.12g > oracle %.12g (seed %d, %dx%d M=%d snr=%g)",
								d, oracle.Dist, seed, nt, nr, m, snr)
						}
					}
				}
			}
		}
	})
}
