package phy

import (
	"fmt"
	"runtime"
	"sync/atomic"

	"flexcore/internal/channel"
	"flexcore/internal/cmatrix"
	"flexcore/internal/coding"
	"flexcore/internal/detector"
	"flexcore/internal/ofdm"
)

// SimConfig drives one link-level measurement.
type SimConfig struct {
	Link    LinkConfig
	SNRdB   float64
	Packets int
	Seed    uint64
	// DetectorFactory builds one detector per worker (detectors are
	// stateful across Prepare/Detect, so workers cannot share one).
	// Required.
	DetectorFactory func() detector.Detector
	// Channels defaults to a fresh TDLProvider over the link geometry.
	// Custom providers must be safe for concurrent Packet calls when
	// Workers > 1 (the built-in providers all are).
	Channels ChannelProvider
	// MaxPacketErrors stops the run early once this many user-packet
	// errors are observed (0 = run all packets) — standard Monte-Carlo
	// early termination for PER estimation. The stop point is determined
	// by accumulating packets strictly in order, so it is identical for
	// every worker count.
	MaxPacketErrors int
	// Soft enables soft-decision decoding: the detector must be FlexCore
	// (FrameDetector.DetectFrameSoft), and the receive chain feeds its
	// LLRs to the Viterbi decoder instead of hard decisions' ±1 LLRs.
	Soft bool
	// PilotSymbols enables explicit least-squares channel estimation
	// from that many pilot OFDM symbols per packet and subcarrier (see
	// EstimateLS): the detector is prepared on the estimate, while
	// transmissions still traverse the true H. The paper's §3.1 notes
	// that reliable channel estimates are required for both the QR
	// decomposition and FlexCore's path selection; this knob measures
	// the sensitivity. 0 = genie CSI.
	PilotSymbols int
	// Workers is the number of packet-level simulation workers
	// (0 = runtime.NumCPU()). Every packet draws its randomness from its
	// own seed-split RNG stream and results are merged in packet order,
	// so the Result is bit-identical for every worker count.
	Workers int
}

// Result summarises a link-level run.
type Result struct {
	UserPackets  int
	PacketErrors int
	PER          float64
	PayloadBits  int64
	BitErrors    int64
	BER          float64
	// ThroughputBps is the paper's network-throughput metric for the full
	// 48-subcarrier 802.11 symbol: PHY rate × (1 − PER).
	ThroughputBps float64
	// AvgActivePEs is the mean per-channel active processing-element
	// count (meaningful for a-FlexCore; equals the fixed path count
	// otherwise, 0 if the detector does not report it).
	AvgActivePEs float64
}

// packetStats is the contribution of one simulated packet to a Result.
type packetStats struct {
	userPackets  int
	packetErrors int
	bitErrors    int64
	payloadBits  int64
	activeSum    float64
	activeN      int
}

// accumulator folds packetStats into a Result, strictly in packet order.
type accumulator struct {
	res       Result
	activeSum float64
	activeN   int
}

// add folds one packet in and reports whether the MaxPacketErrors budget
// has been reached (the early-stop decision point).
func (a *accumulator) add(cfg *SimConfig, st packetStats) bool {
	a.res.UserPackets += st.userPackets
	a.res.PacketErrors += st.packetErrors
	a.res.BitErrors += st.bitErrors
	a.res.PayloadBits += st.payloadBits
	a.activeSum += st.activeSum
	a.activeN += st.activeN
	return cfg.MaxPacketErrors > 0 && a.res.PacketErrors >= cfg.MaxPacketErrors
}

// finalize computes the derived rates.
func (a *accumulator) finalize(cfg *SimConfig) Result {
	res := a.res
	res.PER = float64(res.PacketErrors) / float64(res.UserPackets)
	res.BER = float64(res.BitErrors) / float64(res.PayloadBits)
	res.ThroughputBps = ofdm.NetworkThroughput(cfg.Link.Users, cfg.Link.Constellation.BitsPerSymbol(), codeRate, res.PER)
	if a.activeN > 0 {
		res.AvgActivePEs = a.activeSum / float64(a.activeN)
	}
	return res
}

// effectiveWorkers resolves the worker count from the configuration.
func (cfg *SimConfig) effectiveWorkers() int {
	w := cfg.Workers
	if w <= 0 {
		w = runtime.NumCPU()
	}
	return min(w, cfg.Packets)
}

// Run simulates Packets MIMO-OFDM packets through the full chain and
// returns PER, BER and throughput. Packets are simulated concurrently
// by Workers workers, one detector each; every packet draws from its
// own seed-split RNG stream and outcomes are merged in packet order, so
// the Result is bit-identical for every worker count, including the
// MaxPacketErrors early-stop point.
func Run(cfg SimConfig) (Result, error) {
	if err := cfg.Link.Validate(); err != nil {
		return Result{}, err
	}
	if cfg.Packets < 1 {
		return Result{}, fmt.Errorf("phy: need at least one packet")
	}
	if cfg.DetectorFactory == nil {
		return Result{}, fmt.Errorf("phy: DetectorFactory required")
	}
	if cfg.Channels == nil {
		link := cfg.Link
		sc := make([]int, link.Subcarriers)
		idx := ofdm.DataSubcarrierIndices()
		for i := range sc {
			sc[i] = idx[i*len(idx)/link.Subcarriers]
		}
		cfg.Channels = &TDLProvider{
			Seed:        cfg.Seed ^ 0x5bf03635,
			Users:       link.Users,
			APAntennas:  link.APAntennas,
			Subcarriers: sc,
			Config:      channel.DefaultIndoorTDL,
		}
	}
	il, err := coding.NewInterleaver(cfg.Link.ncbps(), cfg.Link.Constellation.BitsPerSymbol())
	if err != nil {
		return Result{}, err
	}
	return runPackets(&cfg, cfg.effectiveWorkers(), il, channel.Sigma2FromSNRdB(cfg.SNRdB, 1))
}

// runPackets simulates the packets on workers workers, one detector
// each: the caller and workers−1 goroutines claim packet indices from a
// shared counter and simulate them speculatively. The caller merges the
// outcomes strictly in packet order, so accumulation (including float
// summation order), the MaxPacketErrors early stop and error reporting
// replicate a serial packet loop exactly; packets computed beyond the
// stop point are discarded. One worker is the caller alone: no
// goroutine is started, which leaves the frame loop's helper lanes
// alone with the caller (DESIGN.md §8).
func runPackets(cfg *SimConfig, workers int, il *coding.Interleaver, sigma2 float64) (Result, error) {
	var next atomic.Int64
	var stop atomic.Bool
	claim := func() (int, bool) {
		pkt := int(next.Add(1)) - 1
		return pkt, !stop.Load() && pkt < cfg.Packets
	}
	type outcome struct {
		pkt   int // −1: the sending goroutine has exited
		stats packetStats
		err   error
	}
	results := make(chan outcome, 2*workers)
	for i := 1; i < workers; i++ {
		w := newSimWorker(cfg, il, sigma2, cfg.DetectorFactory())
		go func() {
			for pkt, ok := claim(); ok; pkt, ok = claim() {
				st, err := w.simPacket(pkt)
				results <- outcome{pkt: pkt, stats: st, err: err}
				if err != nil {
					break
				}
			}
			results <- outcome{pkt: -1}
		}()
	}

	var acc accumulator
	pending := make(map[int]outcome)
	nextMerge := 0
	done := false
	var firstErr error
	live := workers - 1
	merge := func(out outcome) {
		if out.pkt < 0 {
			live--
			return
		}
		pending[out.pkt] = out
		for {
			o, ok := pending[nextMerge]
			if !ok {
				return
			}
			delete(pending, nextMerge)
			nextMerge++
			if done || firstErr != nil {
				continue // beyond the serial run's stop point: discard
			}
			if o.err != nil {
				firstErr = o.err
				stop.Store(true)
				continue
			}
			if acc.add(cfg, o.stats) {
				done = true
				stop.Store(true)
			}
		}
	}
	own := newSimWorker(cfg, il, sigma2, cfg.DetectorFactory())
	for pkt, ok := claim(); ok; pkt, ok = claim() {
		st, err := own.simPacket(pkt)
		merge(outcome{pkt: pkt, stats: st, err: err})
		if err != nil {
			break
		}
		for len(results) > 0 {
			merge(<-results)
		}
	}
	for live > 0 {
		merge(<-results)
	}
	if firstErr != nil {
		return Result{}, firstErr
	}
	return acc.finalize(cfg), nil
}

// simWorker is the per-worker simulation state: one detector instance
// behind a FrameDetector plus every reusable buffer of the per-packet
// chain.
type simWorker struct {
	cfg    *SimConfig
	il     *coding.Interleaver
	sigma2 float64
	fd     *FrameDetector

	tx   []txPacket
	rxL  [][][]float64     // [user][ofdmSym][ncbps] LLRs, hard decisions as hardLLRs
	x    []complex128      // transmit vector scratch
	prep []*cmatrix.Matrix // [subcarrier] the channel the detector is prepared on
	ys   [][][]complex128  // [subcarrier][ofdmSym] received vectors

	burst    func(k int) [][]complex128
	emit     func(k int, got [][]int)
	emitSoft func(k, s int, got []int, llrs [][]float64)
}

// newSimWorker allocates the worker buffers.
func newSimWorker(cfg *SimConfig, il *coding.Interleaver, sigma2 float64, det detector.Detector) *simWorker {
	link := cfg.Link
	bps := link.Constellation.BitsPerSymbol()
	w := &simWorker{cfg: cfg, il: il, sigma2: sigma2, fd: NewFrameDetector(det)}
	w.tx = make([]txPacket, link.Users)
	w.rxL = grid[float64](link.Users, link.OFDMSymbols, link.ncbps())
	w.x = make([]complex128, link.Users)
	w.prep = make([]*cmatrix.Matrix, link.Subcarriers)
	w.ys = grid[complex128](link.Subcarriers, link.OFDMSymbols, link.APAntennas)
	w.burst = func(k int) [][]complex128 { return w.ys[k] }
	w.emit = func(k int, got [][]int) {
		for s, row := range got {
			for u, sym := range row {
				hardLLRs(link.Constellation, sym, w.rxL[u][s][k*bps:(k+1)*bps])
			}
		}
	}
	w.emitSoft = func(k, s int, _ []int, llrs [][]float64) {
		for u, l := range llrs {
			copy(w.rxL[u][s][k*bps:(k+1)*bps], l)
		}
	}
	return w
}

// simPacket runs one packet end to end: transmit chains, then per
// subcarrier the channel the detector is prepared on (genie or
// LS-estimated) and the received OFDM-symbol burst, then one frame
// detection and decoding. The channels and bursts are drawn first, in
// subcarrier order, so the packet's RNG stream is consumed exactly as
// by a per-subcarrier Prepare/Detect loop. All randomness comes from
// the packet's own seed-split RNG stream, so the outcome depends only
// on (Seed, pkt).
func (w *simWorker) simPacket(pkt int) (packetStats, error) {
	cfg := w.cfg
	link := cfg.Link
	var st packetStats
	rng := channel.NewStreamRNG(cfg.Seed, uint64(pkt))
	hs := cfg.Channels.Packet(pkt)
	if len(hs) != link.Subcarriers {
		return st, fmt.Errorf("phy: provider returned %d subcarriers, want %d", len(hs), link.Subcarriers)
	}
	for u := range w.tx {
		w.tx[u] = link.buildTxPacket(rng, w.il)
	}
	for k, h := range hs {
		w.prep[k] = h
		if cfg.PilotSymbols > 0 {
			w.prep[k] = EstimateLS(rng, h, w.sigma2, cfg.PilotSymbols)
		}
		for s, y := range w.ys[k] {
			for u := range w.x {
				w.x[u] = link.Constellation.Point(w.tx[u].symbols[s][k])
			}
			channel.AddAWGN(rng, h.MulVecInto(w.x, y), w.sigma2)
		}
	}
	sum0, n0 := w.fd.ActivePEs()
	var err error
	if cfg.Soft {
		err = w.fd.DetectFrameSoft(w.prep, w.sigma2, w.burst, w.emitSoft)
	} else {
		err = w.fd.DetectFrame(w.prep, w.sigma2, w.burst, w.emit)
	}
	if err != nil {
		return st, fmt.Errorf("phy: detect frame: %w", err)
	}
	sum1, n1 := w.fd.ActivePEs()
	st.activeSum, st.activeN = sum1-sum0, int(n1-n0)
	for u := 0; u < link.Users; u++ {
		ok, bitErrs, err := link.decodeRxPacket(w.rxL[u], w.tx[u], w.il)
		if err != nil {
			return st, err
		}
		st.userPackets++
		if !ok {
			st.packetErrors++
		}
		st.bitErrors += int64(bitErrs)
		st.payloadBits += int64(len(w.tx[u].payload))
	}
	return st, nil
}

// grid allocates an a×b×c slice of zero values.
func grid[T any](a, b, c int) [][][]T {
	g := make([][][]T, a)
	for i := range g {
		g[i] = make([][]T, b)
		for j := range g[i] {
			g[i][j] = make([]T, c)
		}
	}
	return g
}
