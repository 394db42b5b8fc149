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
		det, err := makeDetector(name, cons, 16, core.BackendComplex128)
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
		_, err := makeDetector(name, cons, 16, core.BackendComplex128)
		if err == nil || !strings.Contains(err.Error(), "unknown detector") {
			t.Fatalf("-detector %q: got %v, want an unknown detector error", name, err)
		}
	}
}
