package phy

import (
	"math"
	"testing"

	"flexcore/internal/channel"
	"flexcore/internal/constellation"
	"flexcore/internal/core"
	"flexcore/internal/detector"
)

func TestRunHighSNRIsErrorFree(t *testing.T) {
	link := smallLink()
	res, err := Run(SimConfig{
		Link:            link,
		SNRdB:           40,
		Packets:         10,
		Seed:            311,
		DetectorFactory: func() detector.Detector { return detector.NewMMSE(link.Constellation) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.PER != 0 || res.BitErrors != 0 {
		t.Fatalf("40 dB: PER %v, bit errors %d", res.PER, res.BitErrors)
	}
	if res.UserPackets != 20 {
		t.Fatalf("user packets %d", res.UserPackets)
	}
	if res.ThroughputBps <= 0 {
		t.Fatal("throughput not computed")
	}
}

func TestRunLowSNRLosesEverything(t *testing.T) {
	link := smallLink()
	res, err := Run(SimConfig{
		Link:            link,
		SNRdB:           -15,
		Packets:         10,
		Seed:            312,
		DetectorFactory: func() detector.Detector { return detector.NewMMSE(link.Constellation) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.PER < 0.9 {
		t.Fatalf("-15 dB: PER only %v", res.PER)
	}
}

func TestRunDeterministic(t *testing.T) {
	link := smallLink()
	run := func() Result {
		res, err := Run(SimConfig{
			Link:            link,
			SNRdB:           8,
			Packets:         8,
			Seed:            313,
			DetectorFactory: func() detector.Detector { return detector.NewMMSE(link.Constellation) },
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same seed, different results: %+v vs %+v", a, b)
	}
}

func TestRunDetectorOrderingPER(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical test")
	}
	// ML must not lose to MMSE in PER on the same channels and noise.
	link := LinkConfig{
		Users:         4,
		APAntennas:    4,
		Constellation: constellation.MustNew(4),
		Subcarriers:   8,
		OFDMSymbols:   8,
	}
	perOf := func(newDet func() detector.Detector) float64 {
		res, err := Run(SimConfig{Link: link, SNRdB: 7, Packets: 60, Seed: 314, DetectorFactory: newDet})
		if err != nil {
			t.Fatal(err)
		}
		return res.PER
	}
	perML := perOf(func() detector.Detector { return detector.NewSphere(link.Constellation) })
	perFC := perOf(func() detector.Detector { return core.New(link.Constellation, core.Options{NPE: 16}) })
	perMMSE := perOf(func() detector.Detector { return detector.NewMMSE(link.Constellation) })
	t.Logf("PER: ML=%.3f FlexCore(16)=%.3f MMSE=%.3f", perML, perFC, perMMSE)
	if perML > perMMSE {
		t.Fatalf("ML PER %.3f worse than MMSE %.3f", perML, perMMSE)
	}
	if perFC > perMMSE {
		t.Fatalf("FlexCore PER %.3f worse than MMSE %.3f", perFC, perMMSE)
	}
}

func TestRunReportsActivePEs(t *testing.T) {
	link := smallLink()
	res, err := Run(SimConfig{Link: link, SNRdB: 30, Packets: 4, Seed: 315, DetectorFactory: func() detector.Detector {
		return core.New(link.Constellation, core.Options{NPE: 16, Threshold: 0.95})
	}})
	if err != nil {
		t.Fatal(err)
	}
	if res.AvgActivePEs <= 0 || res.AvgActivePEs > 16 {
		t.Fatalf("active PEs %v", res.AvgActivePEs)
	}
	// At 30 dB on a 2×2 the channel is easy: nearly one active path.
	if res.AvgActivePEs > 6 {
		t.Fatalf("active PEs %v too high at 30 dB", res.AvgActivePEs)
	}
}

func TestRunEarlyStop(t *testing.T) {
	link := smallLink()
	res, err := Run(SimConfig{
		Link:            link,
		SNRdB:           -15,
		Packets:         1000,
		Seed:            316,
		DetectorFactory: func() detector.Detector { return detector.NewMMSE(link.Constellation) },
		MaxPacketErrors: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.UserPackets >= 1000*link.Users {
		t.Fatal("early stop did not trigger")
	}
	if res.PacketErrors < 10 {
		t.Fatalf("stopped before reaching the error budget: %d", res.PacketErrors)
	}
}

func TestRunValidation(t *testing.T) {
	link := smallLink()
	mmse := func() detector.Detector { return detector.NewMMSE(link.Constellation) }
	if _, err := Run(SimConfig{Link: link, Packets: 0, DetectorFactory: mmse}); err == nil {
		t.Fatal("zero packets accepted")
	}
	if _, err := Run(SimConfig{Link: link, Packets: 1}); err == nil {
		t.Fatal("nil detector accepted")
	}
	bad := link
	bad.Subcarriers = 7
	if _, err := Run(SimConfig{Link: bad, Packets: 1, DetectorFactory: mmse}); err == nil {
		t.Fatal("invalid link accepted")
	}
}

func TestProvidersDeterministicAndDistinct(t *testing.T) {
	tdl := &TDLProvider{Seed: 317, Users: 2, APAntennas: 2, Subcarriers: []int{1, 5, 9}, Config: channel.DefaultIndoorTDL}
	a := tdl.Packet(3)
	b := tdl.Packet(3)
	c := tdl.Packet(4)
	for i := range a {
		if !a[i].EqualApprox(b[i], 0) {
			t.Fatal("TDL provider not deterministic")
		}
	}
	if a[0].EqualApprox(c[0], 1e-9) {
		t.Fatal("TDL provider repeats across packets")
	}

	iid := &IIDProvider{Seed: 318, Users: 2, APAntennas: 3, Subcarriers: 4}
	hs := iid.Packet(0)
	if len(hs) != 4 || hs[0].Rows != 3 || hs[0].Cols != 2 {
		t.Fatal("IID provider shape")
	}
	if hs[0].EqualApprox(hs[1], 1e-9) {
		t.Fatal("IID subcarriers should be independent")
	}

	ts, err := channel.Synthesize(channel.TraceConfig{
		Seed: 319, Users: 2, APAntennas: 2, Subcarriers: []int{0, 4}, Drops: 3, SNRSpreadDB: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	tp := &TraceProvider{Set: ts}
	if got := tp.Packet(5); !got[0].EqualApprox(ts.H[5%3][0], 0) {
		t.Fatal("trace provider cycling wrong")
	}
}

func TestCalibrateSNRFindsTarget(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical test")
	}
	link := smallLink()
	snr, per, err := CalibrateSNR(CalibrationConfig{
		Link:       link,
		TargetPER:  0.3,
		Packets:    40,
		Seed:       320,
		Iterations: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("calibrated SNR %.2f dB → PER %.3f", snr, per)
	if snr <= 0 || snr >= 45 {
		t.Fatalf("calibrated SNR %v out of range", snr)
	}
	if math.Abs(per-0.3) > 0.2 {
		t.Fatalf("calibrated PER %v too far from 0.3", per)
	}
}

func TestCalibrateSNRValidation(t *testing.T) {
	link := smallLink()
	if _, _, err := CalibrateSNR(CalibrationConfig{Link: link, TargetPER: 0}); err == nil {
		t.Fatal("target 0 accepted")
	}
	if _, _, err := CalibrateSNR(CalibrationConfig{Link: link, TargetPER: 1.5}); err == nil {
		t.Fatal("target > 1 accepted")
	}
}

func TestRunSoftBeatsHard(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical test")
	}
	// Soft-decision decoding with FlexCore's list-sphere LLRs must not
	// lose to hard decisions at an operating point with real errors, and
	// typically wins (the paper's §7 motivation).
	link := LinkConfig{
		Users:         4,
		APAntennas:    4,
		Constellation: constellation.MustNew(16),
		Subcarriers:   8,
		OFDMSymbols:   8,
	}
	run := func(soft bool) Result {
		res, err := Run(SimConfig{
			Link: link, SNRdB: 11, Packets: 120, Seed: 900, Soft: soft,
			DetectorFactory: func() detector.Detector { return core.New(link.Constellation, core.Options{NPE: 32}) },
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	hard := run(false)
	soft := run(true)
	t.Logf("hard PER %.3f BER %.2e | soft PER %.3f BER %.2e", hard.PER, hard.BER, soft.PER, soft.BER)
	if soft.PER >= hard.PER {
		t.Fatalf("soft decoding (PER %.3f) not better than hard (%.3f)", soft.PER, hard.PER)
	}
}

func TestRunSoftRequiresSoftDetector(t *testing.T) {
	link := smallLink()
	_, err := Run(SimConfig{
		Link: link, SNRdB: 10, Packets: 1, Seed: 1,
		DetectorFactory: func() detector.Detector { return detector.NewMMSE(link.Constellation) }, Soft: true,
	})
	if err == nil {
		t.Fatal("soft run with a hard-only detector accepted")
	}
}

func TestRunChannelEstimationError(t *testing.T) {
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
	// LS estimation from Np pilots errs by σ²/Np per entry: the fewest
	// pilots that separate 4 users is the heaviest error.
	run := func(pilots int) Result {
		res, err := Run(SimConfig{
			Link: link, SNRdB: 12, Packets: 80, Seed: 901,
			DetectorFactory: func() detector.Detector { return core.New(link.Constellation, core.Options{NPE: 32}) },
			PilotSymbols:    pilots,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	clean := run(0)
	mild := run(16)
	heavy := run(4)
	t.Logf("PER: clean %.3f, mild est error %.3f, heavy %.3f", clean.PER, mild.PER, heavy.PER)
	if heavy.PER <= clean.PER {
		t.Fatalf("heavy estimation error (%.3f) did not degrade PER (clean %.3f)", heavy.PER, clean.PER)
	}
	if mild.PER > heavy.PER {
		t.Fatalf("PER not monotone in estimation error: %.3f vs %.3f", mild.PER, heavy.PER)
	}
}
