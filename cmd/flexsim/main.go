// Command flexsim runs one link-level MIMO-OFDM uplink simulation and
// reports PER, BER and network throughput for a chosen detector.
//
// Example:
//
//	flexsim -users 8 -antennas 8 -qam 16 -snr 14 -detector flexcore -npe 32 -packets 100
//	flexsim -users 12 -antennas 12 -qam 64 -snr 21.6 -detector ml
//	flexsim -users 8 -antennas 8 -qam 64 -snr 18 -detector aflexcore -npe 64
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"flexcore/internal/constellation"
	"flexcore/internal/core"
	"flexcore/internal/detector"
	"flexcore/internal/phy"
)

func main() {
	users := flag.Int("users", 8, "number of single-antenna uplink users (Nt)")
	antennas := flag.Int("antennas", 8, "AP receive antennas (Nr)")
	qam := flag.Int("qam", 16, "QAM order (4, 16, 64, 256, 1024)")
	snr := flag.Float64("snr", 14, "per-stream SNR Es/σ² in dB")
	detName := flag.String("detector", "flexcore", "detector: "+detectorNames)
	npe := flag.Int("npe", 32, "processing elements for flexcore/aflexcore; |Q|^L paths pick L for fcsd")
	packets := flag.Int("packets", 50, "packets to simulate")
	seed := flag.Uint64("seed", 1, "simulation seed")
	subcarriers := flag.Int("subcarriers", 16, "simulated data subcarriers (NCBPS must be a multiple of 16)")
	symbols := flag.Int("symbols", 8, "OFDM symbols per packet")
	channelKind := flag.String("channel", "tdl", "channel model: tdl|flat|iid")
	rho := flag.Float64("rho", 0, "AP-side antenna correlation for flat channels")
	soft := flag.Bool("soft", false, "soft-decision decoding (flexcore/aflexcore/sic only)")
	pilots := flag.Int("pilots", 0, "LS channel estimation from this many pilot symbols (0 = genie CSI)")
	workers := flag.Int("workers", 1, "packet-level simulation parallelism (0 = all cores); results are identical for any value")
	backendName := flag.String("backend", "", "flexcore/aflexcore/sic kernel backend: complex128 (default) or soa32 (float32 structure-of-arrays fast path)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fatal(err)
			}
		}()
	}

	cons, err := constellation.New(*qam)
	if err != nil {
		fatal(err)
	}
	link := phy.LinkConfig{
		Users:         *users,
		APAntennas:    *antennas,
		Constellation: cons,
		Subcarriers:   *subcarriers,
		OFDMSymbols:   *symbols,
	}
	backend, ok := core.ParseBackend(*backendName)
	if !ok {
		fatal(fmt.Errorf("unknown backend %q (want complex128 or soa32)", *backendName))
	}
	name := strings.ToLower(*detName)
	det, err := makeDetector(name, cons, *npe, backend)
	if err != nil {
		fatal(err)
	}
	var channels phy.ChannelProvider
	switch *channelKind {
	case "flat":
		channels = &phy.FlatProvider{Seed: *seed, Users: *users, APAntennas: *antennas, Subcarriers: *subcarriers, APCorrelation: *rho}
	case "iid":
		channels = &phy.IIDProvider{Seed: *seed, Users: *users, APAntennas: *antennas, Subcarriers: *subcarriers}
	case "tdl":
		channels = nil // phy.Run synthesizes the default indoor TDL
	default:
		fatal(fmt.Errorf("unknown channel model %q", *channelKind))
	}

	// One detector per worker; the first is the flag-built instance, so
	// a one-worker run reports its counters below.
	first := true
	cfg := phy.SimConfig{
		Link:    link,
		SNRdB:   *snr,
		Packets: *packets,
		Seed:    *seed,
		DetectorFactory: func() detector.Detector {
			if first {
				first = false
				return det
			}
			d, _ := makeDetector(name, cons, *npe, backend)
			return d
		},
		Channels:     channels,
		Soft:         *soft,
		PilotSymbols: *pilots,
		Workers:      *workers,
	}
	res, err := phy.Run(cfg)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("detector      %s\n", det.Name())
	fmt.Printf("backend       %s\n", backend)
	fmt.Printf("system        %d users × %d antennas, %d-QAM, rate-1/2, %.1f dB\n", *users, *antennas, *qam, *snr)
	fmt.Printf("user packets  %d (%d errors)\n", res.UserPackets, res.PacketErrors)
	fmt.Printf("PER           %.4f\n", res.PER)
	fmt.Printf("BER           %.3e\n", res.BER)
	fmt.Printf("throughput    %.1f Mbit/s (48-subcarrier 802.11 symbol)\n", res.ThroughputBps/1e6)
	if res.AvgActivePEs > 0 {
		fmt.Printf("active PEs    %.1f\n", res.AvgActivePEs)
	}
	if *workers == 1 {
		ops := det.OpCount().PerDetection()
		fmt.Printf("per detection %d real muls, %d FLOPs, %d nodes\n", ops.RealMuls, ops.FLOPs, ops.Nodes)
	}
}

// detectorNames lists every name makeDetector builds, in the -detector
// usage string.
const detectorNames = "flexcore|aflexcore|ml|mmse|sic|fcsd|trellis"

func makeDetector(name string, cons *constellation.Constellation, npe int, backend core.Backend) (detector.Detector, error) {
	opts := core.Options{NPE: npe, Backend: backend}
	switch name {
	case "flexcore":
		return core.New(cons, opts), nil
	case "aflexcore":
		opts.Threshold = 0.95
		return core.New(cons, opts), nil
	case "ml":
		return detector.NewSphere(cons), nil
	case "mmse":
		return detector.NewMMSE(cons), nil
	case "sic": // ordered SIC is FlexCore with one processing element (§3)
		opts.NPE = 1
		return core.New(cons, opts), nil
	case "fcsd":
		l := 1
		for p := cons.Size(); p < npe; p *= cons.Size() {
			l++
		}
		return detector.NewFCSD(cons, l), nil
	case "trellis":
		return detector.NewTrellis(cons), nil
	default:
		return nil, fmt.Errorf("unknown detector %q", name)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "flexsim: %v\n", err)
	os.Exit(1)
}
