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
