// Uplink: a Fig. 9-style measurement — eight users send 16-QAM coded
// packets to an 8-antenna AP at the PER_ML = 0.1 operating point, and
// the achievable network throughput of FlexCore is swept against the
// available processing elements, with FCSD, MMSE and ML references.
package main

import (
	"fmt"
	"log"

	"flexcore"
	"flexcore/internal/phy"
)

func main() {
	cons := flexcore.MustConstellation(16)
	link := flexcore.LinkConfig{
		Users:         8,
		APAntennas:    8,
		Constellation: cons,
		Subcarriers:   8,
		OFDMSymbols:   8,
	}
	channels := func(seed uint64) flexcore.ChannelProvider {
		return &phy.FlatProvider{Seed: seed, Users: 8, APAntennas: 8, Subcarriers: 8, APCorrelation: 0.6}
	}

	// Anchor the SNR where exact ML reaches PER ≈ 0.1 — the paper's
	// definition of this experiment's operating point.
	snr, perML, err := flexcore.CalibrateSNR(flexcore.CalibrationConfig{
		Link:       link,
		TargetPER:  0.1,
		Packets:    24,
		Seed:       4,
		LoDB:       4,
		HiDB:       30,
		Iterations: 7,
		MLMaxNodes: 20000,
		Channels:   channels(4),
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("operating point: %.1f dB (measured PER_ML %.3f)\n\n", snr, perML)

	measure := func(newDet func() flexcore.Detector) flexcore.SimResult {
		res, err := flexcore.RunLink(flexcore.SimConfig{
			Link: link, SNRdB: snr, Packets: 30, Seed: 5,
			DetectorFactory: newDet, Channels: channels(5),
		})
		if err != nil {
			log.Fatal(err)
		}
		return res
	}

	fmt.Println("NPE   FlexCore throughput")
	for _, npe := range []int{1, 4, 16, 64, 128} {
		res := measure(func() flexcore.Detector { return flexcore.New(cons, flexcore.Options{NPE: npe}) })
		fmt.Printf("%-5d %.0f Mbit/s (PER %.3f)\n", npe, res.ThroughputBps/1e6, res.PER)
	}
	fmt.Println()
	fcsd := measure(func() flexcore.Detector { return flexcore.NewFCSD(cons, 1) })
	fmt.Printf("FCSD L=1 (16 paths): %.0f Mbit/s (PER %.3f)\n", fcsd.ThroughputBps/1e6, fcsd.PER)
	mmse := measure(func() flexcore.Detector { return flexcore.NewMMSE(cons) })
	fmt.Printf("MMSE:                %.0f Mbit/s (PER %.3f)\n", mmse.ThroughputBps/1e6, mmse.PER)
	ml := measure(func() flexcore.Detector { return flexcore.NewML(cons) })
	fmt.Printf("ML bound:            %.0f Mbit/s (PER %.3f)\n", ml.ThroughputBps/1e6, ml.PER)
}
