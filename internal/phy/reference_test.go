package phy

import (
	"fmt"
	"testing"

	"flexcore/internal/channel"
	"flexcore/internal/coding"
	"flexcore/internal/core"
	"flexcore/internal/detector"
)

// referenceRun is the textbook per-subcarrier link loop the simulator's
// frame loop must reproduce bit for bit: per packet and subcarrier,
// draw the channel estimate, scalar Prepare on it, then synthesise and
// Detect (or DetectSoft) each OFDM symbol in turn — drawing from the
// packet's RNG stream in the same order as simPacket.
func referenceRun(t *testing.T, cfg SimConfig, det detector.Detector) Result {
	t.Helper()
	link := cfg.Link
	bps := link.Constellation.BitsPerSymbol()
	il, err := coding.NewInterleaver(link.ncbps(), bps)
	if err != nil {
		t.Fatal(err)
	}
	sigma2 := channel.Sigma2FromSNRdB(cfg.SNRdB, 1)
	rep, _ := det.(interface{ ActivePaths() int })
	var acc accumulator
	for pkt := 0; pkt < cfg.Packets; pkt++ {
		var st packetStats
		rng := channel.NewStreamRNG(cfg.Seed, uint64(pkt))
		hs := cfg.Channels.Packet(pkt)
		tx := make([]txPacket, link.Users)
		for u := range tx {
			tx[u] = link.buildTxPacket(rng, il)
		}
		rxL := grid[float64](link.Users, link.OFDMSymbols, link.ncbps())
		x := make([]complex128, link.Users)
		for k, h := range hs {
			prepH := h
			if cfg.PilotSymbols > 0 {
				prepH = EstimateLS(rng, h, sigma2, cfg.PilotSymbols)
			}
			if err := det.Prepare(prepH, sigma2); err != nil {
				t.Fatal(err)
			}
			if rep != nil {
				st.activeSum += float64(rep.ActivePaths())
				st.activeN++
			}
			for s := 0; s < link.OFDMSymbols; s++ {
				for u := range x {
					x[u] = link.Constellation.Point(tx[u].symbols[s][k])
				}
				y := channel.AddAWGN(rng, h.MulVec(x), sigma2)
				if cfg.Soft {
					_, llrs := det.(*core.FlexCore).DetectSoft(y, sigma2)
					for u, l := range llrs {
						copy(rxL[u][s][k*bps:(k+1)*bps], l)
					}
					continue
				}
				for u, g := range det.Detect(y) {
					hardLLRs(link.Constellation, g, rxL[u][s][k*bps:(k+1)*bps])
				}
			}
		}
		for u := range tx {
			ok, bitErrs, err := link.decodeRxPacket(rxL[u], tx[u], il)
			if err != nil {
				t.Fatal(err)
			}
			st.userPackets++
			if !ok {
				st.packetErrors++
			}
			st.bitErrors += int64(bitErrs)
			st.payloadBits += int64(len(tx[u].payload))
		}
		acc.add(&cfg, st)
	}
	return acc.finalize(&cfg)
}

// TestRunMatchesReferenceLoop pins the simulator's one frame loop —
// channels and bursts drawn first, then every subcarrier prepared on its
// own through phy.FrameDetector — to the per-subcarrier scalar loop, for
// every CSI mode, hard and soft, at one and several workers.
func TestRunMatchesReferenceLoop(t *testing.T) {
	link := smallLink()
	csi := []struct {
		name   string
		pilots int
	}{{"genie", 0}, {"pilots", 2}}
	dets := []struct {
		name   string
		softOK bool
		newDet func() detector.Detector
	}{
		{"flexcore", true, func() detector.Detector {
			return core.New(link.Constellation, core.Options{NPE: 8, Threshold: 0.95})
		}},
		{"mmse", false, func() detector.Detector { return detector.NewMMSE(link.Constellation) }},
	}
	for _, c := range csi {
		for _, d := range dets {
			for _, soft := range []bool{false, true} {
				if soft && !d.softOK {
					continue
				}
				cfg := SimConfig{
					Link:            link,
					SNRdB:           7,
					Packets:         6,
					Seed:            611,
					Soft:            soft,
					PilotSymbols:    c.pilots,
					Channels:        &TDLProvider{Seed: 612, Users: link.Users, APAntennas: link.APAntennas, Subcarriers: []int{0, 1, 2, 3, 4, 5, 6, 7}, Config: channel.DefaultIndoorTDL},
					DetectorFactory: d.newDet,
				}
				want := referenceRun(t, cfg, d.newDet())
				if want.BitErrors == 0 {
					t.Fatalf("%s/%s soft=%v: error-free reference exercises nothing", c.name, d.name, soft)
				}
				for _, workers := range []int{1, 3} {
					t.Run(fmt.Sprintf("%s/%s/soft=%v/w%d", c.name, d.name, soft, workers), func(t *testing.T) {
						if got := runAt(t, workers, cfg); got != want {
							t.Fatalf("Run diverged from the per-subcarrier loop:\n  %+v\nvs\n  %+v", got, want)
						}
					})
				}
			}
		}
	}
}
