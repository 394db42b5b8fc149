package phy

import (
	"math"
	"testing"

	"flexcore/internal/channel"
	"flexcore/internal/cmatrix"
	"flexcore/internal/constellation"
	"flexcore/internal/core"
	"flexcore/internal/detector"
)

func TestPilotMatrixOrthogonal(t *testing.T) {
	for _, dims := range [][2]int{{4, 4}, {8, 8}, {8, 16}, {12, 12}} {
		p := pilotMatrix(dims[0], dims[1])
		g := p.Mul(p.H())
		want := cmatrix.Identity(dims[0]).Scale(complex(float64(dims[1]), 0))
		if !g.EqualApprox(want, 1e-9) {
			t.Fatalf("%v: P·Pᴴ != Np·I", dims)
		}
	}
}

func TestEstimateLSErrorVariance(t *testing.T) {
	rng := channel.NewRNG(501)
	const nt, sigma2 = 8, 0.2
	for _, np := range []int{8, 32} {
		var errPow float64
		var n int
		for trial := 0; trial < 200; trial++ {
			h := channel.Rayleigh(rng, nt, nt)
			est := EstimateLS(rng, h, sigma2, np)
			diff := est.Sub(h)
			f := diff.FrobeniusNorm()
			errPow += f * f
			n += nt * nt
		}
		got := errPow / float64(n)
		want := sigma2 / float64(np)
		if math.Abs(got-want) > 0.25*want {
			t.Fatalf("np=%d: error variance %v, want ≈ %v", np, got, want)
		}
	}
}

func TestEstimateLSClampsPilotCount(t *testing.T) {
	rng := channel.NewRNG(502)
	h := channel.Rayleigh(rng, 4, 4)
	// Requesting fewer pilots than users silently clamps to Nt so the
	// streams remain separable.
	est := EstimateLS(rng, h, 1e-12, 1)
	if !est.EqualApprox(h, 1e-4) {
		t.Fatal("near-noiseless estimate should match the channel")
	}
}

func TestRunWithPilotEstimation(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical test")
	}
	link := LinkConfig{
		Users:         4,
		APAntennas:    4,
		Constellation: constellation.MustNew(16),
		Subcarriers:   8,
		OFDMSymbols:   8,
	}
	run := func(pilots int) Result {
		res, err := Run(SimConfig{
			Link: link, SNRdB: 12, Packets: 80, Seed: 902,
			DetectorFactory: func() detector.Detector { return core.New(link.Constellation, core.Options{NPE: 32}) },
			PilotSymbols:    pilots,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	genie := run(0)
	few := run(4)
	many := run(64)
	t.Logf("PER: genie %.3f, 4 pilots %.3f, 64 pilots %.3f", genie.PER, few.PER, many.PER)
	if few.PER <= genie.PER {
		t.Fatalf("pilot estimation (%.3f) should degrade vs genie CSI (%.3f)", few.PER, genie.PER)
	}
	if many.PER > few.PER {
		t.Fatalf("more pilots (%.3f) should not be worse than fewer (%.3f)", many.PER, few.PER)
	}
}
