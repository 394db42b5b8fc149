package phy

import (
	"strings"
	"testing"

	"flexcore/internal/channel"
	"flexcore/internal/cmatrix"
	"flexcore/internal/core"
	"flexcore/internal/detector"
)

// runAt runs the same simulation with a given worker count; everything
// else is fixed so results can be compared bit for bit.
func runAt(t *testing.T, workers int, cfg SimConfig) Result {
	t.Helper()
	cfg.Workers = workers
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	return res
}

func TestRunParallelBitIdentical(t *testing.T) {
	// The determinism contract: for a fixed seed, Result is the same for
	// every worker count — PER, BER, bit errors, active-PE average, all
	// of it. Workers beyond GOMAXPROCS still exercise the merge logic.
	link := smallLink()
	cfg := SimConfig{
		Link:    link,
		SNRdB:   8,
		Packets: 24,
		Seed:    601,
		DetectorFactory: func() detector.Detector {
			return core.New(link.Constellation, core.Options{NPE: 16, Threshold: 0.95})
		},
	}
	serial := runAt(t, 1, cfg)
	if serial.UserPackets == 0 {
		t.Fatal("empty run")
	}
	for _, w := range []int{2, 8} {
		if got := runAt(t, w, cfg); got != serial {
			t.Fatalf("workers=%d diverged:\n  %+v\nvs\n  %+v", w, got, serial)
		}
	}
}

func TestRunParallelEarlyStopBitIdentical(t *testing.T) {
	// MaxPacketErrors must stop at exactly the same packet regardless of
	// worker count: outcomes computed speculatively past the serial stop
	// point are discarded by the in-order merge.
	link := smallLink()
	cfg := SimConfig{
		Link:    link,
		SNRdB:   -15,
		Packets: 1000,
		Seed:    602,
		DetectorFactory: func() detector.Detector {
			return detector.NewMMSE(link.Constellation)
		},
		MaxPacketErrors: 10,
	}
	serial := runAt(t, 1, cfg)
	if serial.UserPackets >= 1000*link.Users {
		t.Fatal("early stop did not trigger")
	}
	for _, w := range []int{3, 8} {
		if got := runAt(t, w, cfg); got != serial {
			t.Fatalf("workers=%d early-stop diverged:\n  %+v\nvs\n  %+v", w, got, serial)
		}
	}
}

func TestRunParallelSoftBitIdentical(t *testing.T) {
	link := smallLink()
	cfg := SimConfig{
		Link:    link,
		SNRdB:   6,
		Packets: 12,
		Seed:    603,
		Soft:    true,
		DetectorFactory: func() detector.Detector {
			return core.New(link.Constellation, core.Options{NPE: 16})
		},
	}
	serial := runAt(t, 1, cfg)
	if got := runAt(t, 4, cfg); got != serial {
		t.Fatalf("soft workers=4 diverged:\n  %+v\nvs\n  %+v", got, serial)
	}
}

func TestRunWorkersRequireFactory(t *testing.T) {
	link := smallLink()
	for _, workers := range []int{0, 1, 4} {
		_, err := Run(SimConfig{Link: link, SNRdB: 10, Packets: 4, Seed: 604, Workers: workers})
		if err == nil {
			t.Fatalf("Workers = %d without a DetectorFactory accepted", workers)
		}
	}
}

func TestRunFactoryServesSerialPath(t *testing.T) {
	// One worker (the caller alone, no goroutine started) must give the
	// same result as the default of all cores.
	link := smallLink()
	cfg := SimConfig{
		Link: link, SNRdB: 8, Packets: 8, Seed: 605,
		DetectorFactory: func() detector.Detector { return detector.NewMMSE(link.Constellation) },
	}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 1
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("one worker diverged from all cores:\n  %+v\nvs\n  %+v", b, a)
	}
}

// shortProvider returns one subcarrier too few from packet bad on.
type shortProvider struct {
	ChannelProvider
	bad int
}

func (p shortProvider) Packet(pkt int) []*cmatrix.Matrix {
	hs := p.ChannelProvider.Packet(pkt)
	if pkt >= p.bad {
		hs = hs[1:]
	}
	return hs
}

func TestRunPacketErrorAnyWorkers(t *testing.T) {
	// A failing packet ends the run with its error for every worker
	// count: the workers that started no packet or failed exit, and
	// none is left waiting to send.
	link := smallLink()
	cfg := SimConfig{
		Link: link, SNRdB: 8, Packets: 16, Seed: 606,
		DetectorFactory: func() detector.Detector { return detector.NewMMSE(link.Constellation) },
		Channels:        shortProvider{&FlatProvider{Seed: 606, Users: link.Users, APAntennas: link.APAntennas, Subcarriers: link.Subcarriers}, 5},
	}
	for _, w := range []int{1, 2, 8} {
		cfg.Workers = w
		if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), "provider returned") {
			t.Fatalf("workers=%d: got %v, want the short packet's error", w, err)
		}
	}
}

func TestSplitSeedStreamsAreDistinct(t *testing.T) {
	// Neighbouring packet streams must decorrelate even for tiny seeds.
	seen := map[uint64]bool{}
	for stream := uint64(0); stream < 64; stream++ {
		s := channel.SplitSeed(1, stream)
		if seen[s] {
			t.Fatalf("stream %d collides", stream)
		}
		seen[s] = true
	}
	if channel.SplitSeed(1, 0) == channel.SplitSeed(2, 0) {
		t.Fatal("seeds 1 and 2 collide on stream 0")
	}
}

func TestRunParallelEarlyStopFlexCoreBitIdentical(t *testing.T) {
	// The full determinism matrix for the paper's own detector: a
	// FlexCore factory under MaxPacketErrors early stop must be
	// byte-identical for every simulation worker count.
	link := smallLink()
	cfg := SimConfig{
		Link:    link,
		SNRdB:   -12,
		Packets: 400,
		Seed:    606,
		DetectorFactory: func() detector.Detector {
			return core.New(link.Constellation, core.Options{NPE: 16})
		},
		MaxPacketErrors: 6,
	}
	serial := runAt(t, 1, cfg)
	if serial.UserPackets >= 400*link.Users {
		t.Fatal("early stop did not trigger")
	}
	if serial.PacketErrors < 6 {
		t.Fatalf("stopped with only %d packet errors", serial.PacketErrors)
	}
	for _, w := range []int{2, 8} {
		if got := runAt(t, w, cfg); got != serial {
			t.Fatalf("workers=%d early-stop diverged:\n  %+v\nvs\n  %+v", w, got, serial)
		}
	}
}

func TestRunReuseEstimatesWorkerIndependent(t *testing.T) {
	// Estimated channels under PathReuse: every packet sees the same true
	// H on every subcarrier (one trace drop, one bin) with fresh
	// estimates, so a coherence base that survived from a worker's
	// previous packet would hit and carry that packet's path set — making
	// the Result depend on which packets the worker ran before. Every
	// packet prepares its own frame, so it cannot.
	link := smallLink()
	ts, err := channel.Synthesize(channel.TraceConfig{
		Seed: 607, Users: link.Users, APAntennas: link.APAntennas,
		Subcarriers: []int{5, 5, 5, 5, 5, 5, 5, 5}, Drops: 1, SNRSpreadDB: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := SimConfig{
		Link:         link,
		SNRdB:        8,
		Packets:      24,
		Seed:         608,
		PilotSymbols: 4,
		Channels:     &TraceProvider{Set: ts},
		DetectorFactory: func() detector.Detector {
			return core.New(link.Constellation, core.Options{NPE: 16, Threshold: 0.95, PathReuse: true})
		},
	}
	serial := runAt(t, 1, cfg)
	for _, w := range []int{2, 3} {
		if got := runAt(t, w, cfg); got != serial {
			t.Fatalf("workers=%d diverged under reuse:\n  %+v\nvs\n  %+v", w, got, serial)
		}
	}
}
