package core

import (
	"math"
	"testing"

	"flexcore/internal/channel"
	"flexcore/internal/cmatrix"
	"flexcore/internal/constellation"
)

// benchGeometries are the bench workloads' detector geometries:
// serve-static and serve-mobile (4×4 16-QAM, N_PE 512 at σ² 0.05),
// frame-prep (8×8 64-QAM, N_PE 128 at 17 dB) and frame-detect (12×12
// 64-QAM, N_PE 128 at 16 dB).
// k subcarriers of s symbols make one frame.
var benchGeometries = []struct {
	name         string
	nt, qam, npe int
	sigma2       float64
	k, s         int
}{
	{"serve", 4, 16, 512, 0.05, 8, 1},
	{"frame-prep", 8, 64, 128, math.Pow(10, -17.0/10), 48, 1},
	{"frame-detect", 12, 64, 128, math.Pow(10, -16.0/10), 48, 4},
}

// BenchmarkPathSearch times one pre-processing search — the merge and
// the plan it writes — at each bench geometry, cycling over the models of
// 16 seeded Rayleigh channels. It is the in-process A/B instrument for
// search-side changes (EXPERIMENTS.md): run it on two builds alternately.
func BenchmarkPathSearch(b *testing.B) {
	for _, g := range benchGeometries {
		b.Run(g.name, func(b *testing.B) {
			cons := constellation.MustNew(g.qam)
			rng := newRng(3800)
			models := make([]Model, 16)
			var ws cmatrix.QRWorkspace
			var qr cmatrix.QRResult
			for i := range models {
				ws.SortedQRInto(channel.Rayleigh(rng, g.nt, g.nt), cmatrix.OrderSQRD, &qr)
				NewModelInto(&models[i], qr.R, g.sigma2, cons)
			}
			var f pathFinder
			var dst pathStore
			for i := range models {
				f.find(&models[i], g.npe, 0, &dst)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f.find(&models[i%len(models)], g.npe, 0, &dst)
			}
		})
	}
}

// BenchmarkFrame times one frame on the soa32 backend at each bench
// geometry: PrepareAll of k fresh channels — sorted QR, model and search
// per subcarrier — then per subcarrier Select, the channel planes and s
// descents (Detect), cycling over 4 seeded frames. It is what a search
// or descent change buys a frame whose every channel is new.
func BenchmarkFrame(b *testing.B) {
	for _, g := range benchGeometries {
		b.Run(g.name, func(b *testing.B) {
			cons := constellation.MustNew(g.qam)
			rng := newRng(3850)
			const frames = 4
			hs := make([][]*cmatrix.Matrix, frames)
			ys := make([][][]complex128, frames)
			for f := range hs {
				for k := 0; k < g.k; k++ {
					h := channel.Rayleigh(rng, g.nt, g.nt)
					hs[f] = append(hs[f], h)
					for v := 0; v < g.s; v++ {
						ys[f] = append(ys[f], transmit(rng, h, cons, randSymbols(rng, cons, g.nt), g.sigma2))
					}
				}
			}
			det := New(cons, Options{NPE: g.npe, Backend: BackendSoA32})
			frame := func(f int) {
				if err := det.PrepareAll(hs[f], g.sigma2); err != nil {
					b.Fatal(err)
				}
				for k := 0; k < g.k; k++ {
					if err := det.Select(k); err != nil {
						b.Fatal(err)
					}
					for _, y := range ys[f][k*g.s : (k+1)*g.s] {
						det.Detect(y)
					}
				}
			}
			for f := range hs {
				frame(f)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				frame(i % frames)
			}
		})
	}
}

// BenchmarkReuseHitColdBases times the served static-channel step at the
// serve geometry on reused bases: one soa32 detector with PathReuse and
// 16 users, each with its own ReuseState of 8 subcarriers over static
// channels, so every step after the first frame is a reuse hit. It
// cycles the users as a shard does — install the user's state, then per
// subcarrier PrepareAt, Select(0) and Detect — so each hit's plan was
// last read 15 users ago. Sixteen users' bases fit a 4 MiB L2 with room
// to spare, which a served process's other traffic does not leave them:
// "evicted" reads a 16 MiB buffer, untimed, before each user, so its
// bases come from the last-level cache as a served hit's do.
// BenchmarkDescendGeometry in internal/kernel32 is the warm counterpart:
// its 8 plans stay in cache. One op is one subcarrier.
func BenchmarkReuseHitColdBases(b *testing.B) {
	const users = 16
	g := benchGeometries[0]
	cons := constellation.MustNew(g.qam)
	rng := newRng(3950)
	hs := make([][]*cmatrix.Matrix, users)
	ys := make([][]complex128, users*g.k)
	for u := range hs {
		for k := 0; k < g.k; k++ {
			h := channel.Rayleigh(rng, g.nt, g.nt)
			hs[u] = append(hs[u], h)
			ys[u*g.k+k] = transmit(rng, h, cons, randSymbols(rng, cons, g.nt), g.sigma2)
		}
	}
	for _, evict := range []bool{false, true} {
		name := "resident"
		if evict {
			name = "evicted"
		}
		b.Run(name, func(b *testing.B) {
			states := make([]ReuseState, users)
			for u := range states {
				states[u].Grow(g.k)
			}
			det := New(cons, Options{NPE: g.npe, Backend: BackendSoA32, PathReuse: true})
			var other []byte
			if evict {
				other = make([]byte, 16<<20)
			}
			sink := byte(0)
			step := func(i int) {
				u, k := i/g.k%users, i%g.k
				if k == 0 {
					if evict {
						b.StopTimer()
						for j := 0; j < len(other); j += 64 {
							sink += other[j]
						}
						b.StartTimer()
					}
					det.SetReuseState(&states[u])
				}
				if err := det.PrepareAt(hs[u], k, g.sigma2); err != nil {
					b.Fatal(err)
				}
				det.Detect(ys[u*g.k+k])
			}
			for i := range users * g.k { // the first frame: every base searched
				step(i)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := range b.N {
				step(i)
			}
			b.StopTimer()
			if pp := det.PreprocessStats(); pp.CacheMisses != users*int64(g.k) || sink == 1 {
				b.Fatalf("%d reuse misses, want only the first frame's %d", pp.CacheMisses, users*g.k)
			}
		})
	}
}
