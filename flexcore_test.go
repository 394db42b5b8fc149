package flexcore_test

import (
	"testing"

	"flexcore"
	"flexcore/internal/cmatrix"
)

// TestFacadeEndToEnd exercises the public API the way README's quickstart
// does: build a channel, prepare, detect, and compare against ML.
func TestFacadeEndToEnd(t *testing.T) {
	cons := flexcore.MustConstellation(16)
	h := flexcore.Rayleigh(7, 8, 8)
	sigma2 := flexcore.Sigma2FromSNRdB(30)

	det := flexcore.New(cons, flexcore.Options{NPE: 32})
	ml := flexcore.NewML(cons)
	if err := det.Prepare(h, sigma2); err != nil {
		t.Fatal(err)
	}
	if err := ml.Prepare(h, sigma2); err != nil {
		t.Fatal(err)
	}
	// Transmit a clean vector: both detectors must agree at high SNR.
	x := make([]complex128, 8)
	want := make([]int, 8)
	for i := range x {
		want[i] = (i * 3) % cons.Size()
		x[i] = cons.Point(want[i])
	}
	y := h.MulVec(x)
	got := det.Detect(y)
	gotML := ml.Detect(y)
	for i := range want {
		if got[i] != want[i] || gotML[i] != want[i] {
			t.Fatalf("stream %d: flexcore %d, ml %d, want %d", i, got[i], gotML[i], want[i])
		}
	}
	if det.OpCount().Detections != 1 {
		t.Fatal("op counters not wired through the facade")
	}
}

// TestFacadeReuseState: a facade user reaches cross-frame reuse — a
// detector with PathReuse and an installed ReuseState prepares a
// re-sent 3-subcarrier frame from the first frame's path sets.
func TestFacadeReuseState(t *testing.T) {
	cons := flexcore.MustConstellation(16)
	det := flexcore.New(cons, flexcore.Options{NPE: 16, PathReuse: true})
	var st flexcore.ReuseState
	det.SetReuseState(&st)
	hs := []*flexcore.Matrix{flexcore.Rayleigh(1, 4, 3), flexcore.Rayleigh(2, 4, 3), flexcore.Rayleigh(3, 4, 3)}
	sigma2 := flexcore.Sigma2FromSNRdB(15)
	for range 2 {
		if err := det.PrepareAll(hs, sigma2); err != nil {
			t.Fatal(err)
		}
	}
	if pp := det.PreprocessStats(); pp.CacheHits != 3 || pp.CacheMisses != 3 {
		t.Fatalf("a frame prepared twice against one ReuseState: %d hits, %d misses; want 3 and 3", pp.CacheHits, pp.CacheMisses)
	}
}

func TestFacadeFindPaths(t *testing.T) {
	cons := flexcore.MustConstellation(64)
	r := cmatrix.New(4, 4)
	for i := 0; i < 4; i++ {
		r.Set(i, i, complex(float64(i+1)/2, 0))
	}
	paths := flexcore.FindPaths(r, flexcore.Sigma2FromSNRdB(15), cons, 16, 0)
	if len(paths) != 16 {
		t.Fatalf("%d paths", len(paths))
	}
	for i, rank := range paths[0].Ranks {
		if rank != 1 {
			t.Fatalf("most promising path rank[%d] = %d", i, rank)
		}
	}
}

func TestFacadeLinkSim(t *testing.T) {
	cons := flexcore.MustConstellation(4)
	res, err := flexcore.RunLink(flexcore.SimConfig{
		Link: flexcore.LinkConfig{
			Users: 2, APAntennas: 2, Constellation: cons,
			Subcarriers: 8, OFDMSymbols: 8,
		},
		SNRdB:           35,
		Packets:         5,
		Seed:            9,
		DetectorFactory: func() flexcore.Detector { return flexcore.NewMMSE(cons) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.PER != 0 {
		t.Fatalf("high-SNR PER %v", res.PER)
	}
}
