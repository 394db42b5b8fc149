package kernel32

import (
	"math"
	"math/rand/v2"
	"sort"
	"testing"

	"flexcore/internal/channel"
	"flexcore/internal/cmatrix"
	"flexcore/internal/constellation"
)

// bestFirstPlane stages the rank plane of the p most probable paths of
// the paper's model (§3.1.1) for R — per-level error probability from
// the diagonal, children by the Fig. 5 rule, a stable sorted candidate
// list — the kind of path set a descent walks in production, without
// importing the search that internal/core runs.
func bestFirstPlane(pr *Prep, r *cmatrix.Matrix, cons *constellation.Constellation, sigma2 float64, p int) {
	n, m := r.Cols, cons.Size()
	logPe := make([]float64, n)
	for i := range logPe {
		pax := (1 - 1/math.Sqrt(float64(m))) * math.Erfc(real(r.At(i, i))*cons.Scale()/math.Sqrt(sigma2))
		logPe[i] = math.Log(min(max(1-(1-pax)*(1-pax), 1e-15), 0.9999))
	}
	type cand struct {
		ranks   []int16
		logP    float64
		lastInc int
	}
	root := cand{ranks: make([]int16, n), lastInc: n - 1}
	for i := range root.ranks {
		root.ranks[i] = 1
	}
	list, plane := []cand{root}, pr.EnsureRanks(p)
	for lane := 0; lane < p; lane++ {
		c := list[0]
		list = list[1:]
		for i, r := range c.ranks {
			plane[i*p+lane] = r
		}
		for w := 0; w <= c.lastInc; w++ {
			if int(c.ranks[w]) < m {
				kid := cand{ranks: append([]int16(nil), c.ranks...), logP: c.logP + logPe[w], lastInc: w}
				kid.ranks[w]++
				list = append(list, kid)
			}
		}
		sort.SliceStable(list, func(i, j int) bool { return list[i].logP > list[j].logP })
	}
}

// BenchmarkDescendGeometry times one detection on the descent kernel —
// SetYbar, Descend over every lane, GatherIdx of the winner — at each
// bench geometry (see internal/core's BenchmarkPathSearch), cycling over
// 8 seeded Rayleigh channels with their best-first path sets and 16
// noisy received vectors each. It is the in-process A/B instrument for
// descent-side changes (EXPERIMENTS.md).
func BenchmarkDescendGeometry(b *testing.B) {
	for _, g := range []struct {
		name         string
		nt, qam, npe int
		sigma2       float64
	}{
		{"serve", 4, 16, 512, 0.05},
		{"frame-prep", 8, 64, 128, math.Pow(10, -17.0/10)},
		{"frame-detect", 12, 64, 128, math.Pow(10, -16.0/10)},
	} {
		b.Run(g.name, func(b *testing.B) {
			const channels, vectors = 8, 16
			cons := constellation.MustNew(g.qam)
			sl := NewSlicer32(cons)
			rng := rand.New(rand.NewPCG(3900, 3901))
			preps := make([]Prep, channels)
			ys := make([][]complex128, channels*vectors)
			var s Scratch
			s.Ensure(g.nt, g.npe)
			for c := range preps {
				r := cmatrix.SortedQR(channel.Rayleigh(rng, g.nt, g.nt), cmatrix.OrderSQRD).R
				preps[c].SetChannel(r, 1/cons.Scale())
				bestFirstPlane(&preps[c], r, cons, g.sigma2, g.npe)
				for v := 0; v < vectors; v++ {
					x := make([]complex128, g.nt)
					for i := range x {
						x[i] = cons.Point(rng.IntN(g.qam))
					}
					y := r.MulVec(x)
					channel.AddAWGN(rng, y, g.sigma2)
					ys[c*vectors+v] = y
				}
				s.SetYbar(ys[c*vectors])
				Descend(&preps[c], sl, &s, 0, g.npe, false) // compile the plane outside the timed loop
			}
			idx := make([]int, g.nt)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				v := i % len(ys)
				pr := &preps[v/vectors]
				s.SetYbar(ys[v])
				if lane, _ := Descend(pr, sl, &s, 0, g.npe, false); lane >= 0 {
					s.GatherIdx(lane, idx)
				}
			}
		})
	}
}
