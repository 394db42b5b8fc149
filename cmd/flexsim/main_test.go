package main

import (
	"strings"
	"testing"

	"flexcore/internal/constellation"
	"flexcore/internal/core"
	"flexcore/internal/detector"
	"flexcore/internal/phy"
)

// TestUsageNamesBuildAndRun builds every detector the -detector usage
// string names and runs it through one packet of phy.Run, so a name
// whose case is deleted from makeDetector cannot stay in the usage.
func TestUsageNamesBuildAndRun(t *testing.T) {
	cons := constellation.MustNew(4)
	link := phy.LinkConfig{Users: 2, APAntennas: 2, Constellation: cons, Subcarriers: 8, OFDMSymbols: 8}
	for _, name := range strings.Split(detectorNames, "|") {
		det, err := makeDetector(name, cons, 16, false, core.BackendComplex128)
		if err != nil {
			t.Fatalf("-detector %s: %v", name, err)
		}
		res, err := phy.Run(phy.SimConfig{
			Link: link, SNRdB: 20, Packets: 1, Seed: 1, Workers: 1,
			DetectorFactory: func() detector.Detector { return det },
		})
		if err != nil {
			t.Fatalf("-detector %s: %v", name, err)
		}
		if res.UserPackets != link.Users {
			t.Fatalf("-detector %s: %d user packets, want %d", name, res.UserPackets, link.Users)
		}
	}
}

// TestUnknownDetector pins the error for names makeDetector does not
// build, including kbest and lrzf: the paper evaluates neither.
func TestUnknownDetector(t *testing.T) {
	cons := constellation.MustNew(4)
	for _, name := range []string{"kbest", "lrzf", "nosuch", ""} {
		_, err := makeDetector(name, cons, 16, false, core.BackendComplex128)
		if err == nil || !strings.Contains(err.Error(), "unknown detector") {
			t.Fatalf("-detector %q: got %v, want an unknown detector error", name, err)
		}
	}
}

// TestReuseIsOutputNeutral runs flexcore and aflexcore with -reuse on
// and off over flat channels, where every subcarrier of a packet shares
// one H, so the within-frame chain hits: the results and the op count
// must be identical, and the cache must have hit.
func TestReuseIsOutputNeutral(t *testing.T) {
	cons := constellation.MustNew(16)
	link := phy.LinkConfig{Users: 4, APAntennas: 4, Constellation: cons, Subcarriers: 16, OFDMSymbols: 4}
	for _, name := range []string{"flexcore", "aflexcore"} {
		var res [2]phy.Result
		var dets [2]detector.Detector
		for i, reuse := range []bool{false, true} {
			det, err := makeDetector(name, cons, 32, reuse, core.BackendComplex128)
			if err != nil {
				t.Fatal(err)
			}
			dets[i] = det
			res[i], err = phy.Run(phy.SimConfig{
				Link: link, SNRdB: 12, Packets: 6, Seed: 5, Workers: 1,
				Channels:        &phy.FlatProvider{Seed: 5, Users: link.Users, APAntennas: link.APAntennas, Subcarriers: link.Subcarriers},
				DetectorFactory: func() detector.Detector { return det },
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		if res[0] != res[1] {
			t.Fatalf("-detector %s: -reuse changed the result:\n  %+v\nvs\n  %+v", name, res[1], res[0])
		}
		if a, b := dets[0].OpCount(), dets[1].OpCount(); a != b {
			t.Fatalf("-detector %s: -reuse changed the op count: %+v vs %+v", name, b, a)
		}
		if hits := dets[1].(*core.FlexCore).PreprocessStats().CacheHits; hits == 0 {
			t.Fatalf("-detector %s: no cache hit on shared flat channels", name)
		}
	}
}
