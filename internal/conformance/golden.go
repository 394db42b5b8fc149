package conformance

import (
	"encoding/json"
	"fmt"
	"os"

	"flexcore/internal/cmatrix"
	"flexcore/internal/constellation"
	"flexcore/internal/core"
	"flexcore/internal/detector"
	"flexcore/internal/phy"
)

// GoldenSuite is the on-disk golden corpus: a set of fully-determined
// detection cases with every detector's expected output, plus short
// link-level simulation runs with their expected packet/bit-error
// counts. Any refactor that changes numerical behaviour anywhere in the
// stack — RNG streams, channel synthesis, QR pivoting, slicing,
// path selection, Viterbi decoding — shifts at least one pinned value
// and fails the golden test with a readable diff.
//
// Regenerate with `go generate ./internal/conformance` (which runs
// cmd/goldengen) after an intentional behaviour change, and review the
// resulting JSON diff like any other code change.
type GoldenSuite struct {
	// Comment documents the regeneration command inside the fixture.
	Comment string       `json:"_comment"`
	Cases   []GoldenCase `json:"cases"`
	Sims    []GoldenSim  `json:"sims"`
}

// GoldenCase pins per-vector detector outputs on one seeded channel.
// H and Y are stored (as [re, im] pairs) even though they are
// regenerable from the seed: when inputs drift the diff then says so
// directly instead of blaming every detector.
type GoldenCase struct {
	Name    string  `json:"name"`
	Seed    uint64  `json:"seed"`
	M       int     `json:"m"`
	Nt      int     `json:"nt"`
	Nr      int     `json:"nr"`
	SNRdB   float64 `json:"snr_db"`
	Vectors int     `json:"vectors"`

	H [][2]float64   `json:"h"` // row-major Nr×Nt
	Y [][][2]float64 `json:"y"` // [vector][antenna]

	// OracleDist is the exhaustive-ML minimum distance per vector
	// (omitted when |Q|^Nt exceeds the oracle budget).
	OracleDist []float64 `json:"oracle_dist,omitempty"`
	// Detectors holds each detector's expected symbol indices per
	// vector, keyed by detector name, in a stable order.
	Detectors []GoldenDetector `json:"detectors"`
}

// GoldenDetector is one detector's expected output on a GoldenCase.
type GoldenDetector struct {
	Name    string  `json:"name"`
	Indices [][]int `json:"indices"` // [vector][stream]
}

// GoldenSim pins the outcome of a short deterministic link-level run:
// exact packet and bit-error counts (PER/BER are derived and therefore
// implied). MaxPacketErrors > 0 additionally pins the Monte-Carlo
// early-stop point.
type GoldenSim struct {
	Name            string  `json:"name"`
	Detector        string  `json:"detector"`
	Seed            uint64  `json:"seed"`
	SNRdB           float64 `json:"snr_db"`
	Packets         int     `json:"packets"`
	MaxPacketErrors int     `json:"max_packet_errors,omitempty"`

	UserPackets  int   `json:"user_packets"`
	PacketErrors int   `json:"packet_errors"`
	BitErrors    int64 `json:"bit_errors"`
	PayloadBits  int64 `json:"payload_bits"`
}

// goldenCaseParams are the seeded scenarios the corpus pins. The spread
// covers both constellations of the acceptance criteria plus a 64-QAM
// point, and includes a geometry with more antennas than streams.
var goldenCaseParams = []struct {
	name   string
	seed   uint64
	m      int
	nt, nr int
	snrdB  float64
}{
	{"qpsk-2x2", 2001, 4, 2, 2, 8},
	{"qpsk-3x4", 2002, 4, 3, 4, 10},
	{"16qam-2x2", 2003, 16, 2, 2, 14},
	{"16qam-3x3", 2004, 16, 3, 3, 16},
	{"64qam-2x2", 2005, 64, 2, 2, 20},
}

const goldenVectorsPerCase = 4

// goldenDetectors builds the detector set pinned per case, in stable
// order. Names must stay unique — they key the fixture.
func goldenDetectors(cons *constellation.Constellation) []detector.Detector {
	return []detector.Detector{
		detector.NewMMSE(cons),
		newSIC(cons),
		detector.NewSphere(cons),
		detector.NewFCSD(cons, 1),
		detector.NewTrellis(cons),
		core.New(cons, core.Options{NPE: 8}),
		core.New(cons, core.Options{NPE: 16, Threshold: 0.95}),
		core.New(cons, core.Options{NPE: 16, ExactSlicer: true}),
	}
}

// sic is ordered SIC as the paper builds it, "essentially a single-path
// FlexCore" (§3): FlexCore with one processing element, under the name
// the corpus keys it by.
type sic struct{ *core.FlexCore }

// Name implements detector.Detector.
func (sic) Name() string { return "SIC" }

func newSIC(cons *constellation.Constellation) detector.Detector {
	return sic{core.New(cons, core.Options{NPE: 1})}
}

// goldenLink is the fast 2×2 QPSK geometry the pinned simulation runs
// use (mirrors the phy package's unit-test link).
func goldenLink() phy.LinkConfig {
	return phy.LinkConfig{
		Users:         2,
		APAntennas:    2,
		Constellation: constellation.MustNew(4),
		Subcarriers:   8,
		OFDMSymbols:   8,
	}
}

// goldenSimDetector maps a pinned sim's detector name to a factory of
// fresh instances (the inverse of Detector.Name for the names the
// corpus uses).
func goldenSimDetector(name string) (func() detector.Detector, error) {
	cons := goldenLink().Constellation
	switch name {
	case "MMSE":
		return func() detector.Detector { return detector.NewMMSE(cons) }, nil
	case "SIC":
		return func() detector.Detector { return newSIC(cons) }, nil
	case "ML":
		return func() detector.Detector { return detector.NewSphere(cons) }, nil
	case "FlexCore(NPE=16)":
		return func() detector.Detector { return core.New(cons, core.Options{NPE: 16}) }, nil
	default:
		return nil, fmt.Errorf("conformance: unknown golden sim detector %q", name)
	}
}

// goldenSimParams are the pinned link-level runs: one ordinary short
// run per detector plus one run exercising the MaxPacketErrors
// early-stop path.
var goldenSimParams = []struct {
	name            string
	det             string
	seed            uint64
	snrdB           float64
	packets         int
	maxPacketErrors int
}{
	{"per-mmse", "MMSE", 3001, 8, 12, 0},
	{"per-sic", "SIC", 3002, 8, 12, 0},
	{"per-ml", "ML", 3003, 8, 12, 0},
	{"per-flexcore16", "FlexCore(NPE=16)", 3004, 8, 12, 0},
	{"per-earlystop-mmse", "MMSE", 3005, -15, 400, 5},
}

// GenerateGoldenSuite regenerates the entire corpus from its seeds.
// It is the single source of truth shared by cmd/goldengen (which
// writes the fixture) and the golden test (which diffs a fresh
// generation against the fixture).
func GenerateGoldenSuite() (*GoldenSuite, error) {
	suite := &GoldenSuite{
		Comment: "Generated by cmd/goldengen (go generate ./internal/conformance). " +
			"Do not edit by hand; regenerate after intentional behaviour changes and review the diff.",
	}
	for _, p := range goldenCaseParams {
		c := NewCase(p.seed, p.m, p.nt, p.nr, p.snrdB, goldenVectorsPerCase)
		gc := GoldenCase{
			Name: p.name, Seed: p.seed, M: p.m, Nt: p.nt, Nr: p.nr,
			SNRdB: p.snrdB, Vectors: goldenVectorsPerCase,
			H: packMatrix(c.H), Y: packVectors(c.Y),
		}
		if c.Hypotheses() <= MaxOracleHypotheses {
			gc.OracleDist = make([]float64, len(c.Y))
			for v := range c.Y {
				res, err := ExhaustiveML(c.H, c.Y[v], c.Cons)
				if err != nil {
					return nil, fmt.Errorf("case %s: %w", p.name, err)
				}
				gc.OracleDist[v] = res.Dist
			}
		}
		for _, det := range goldenDetectors(c.Cons) {
			if err := det.Prepare(c.H, c.Sigma2); err != nil {
				return nil, fmt.Errorf("case %s: %s: %w", p.name, det.Name(), err)
			}
			gd := GoldenDetector{Name: det.Name(), Indices: make([][]int, len(c.Y))}
			for v := range c.Y {
				gd.Indices[v] = append([]int(nil), det.Detect(c.Y[v])...)
			}
			gc.Detectors = append(gc.Detectors, gd)
		}
		suite.Cases = append(suite.Cases, gc)
	}
	for _, p := range goldenSimParams {
		newDet, err := goldenSimDetector(p.det)
		if err != nil {
			return nil, err
		}
		res, err := phy.Run(phy.SimConfig{
			Link:            goldenLink(),
			SNRdB:           p.snrdB,
			Packets:         p.packets,
			Seed:            p.seed,
			DetectorFactory: newDet,
			MaxPacketErrors: p.maxPacketErrors,
		})
		if err != nil {
			return nil, fmt.Errorf("sim %s: %w", p.name, err)
		}
		suite.Sims = append(suite.Sims, GoldenSim{
			Name: p.name, Detector: p.det, Seed: p.seed, SNRdB: p.snrdB,
			Packets: p.packets, MaxPacketErrors: p.maxPacketErrors,
			UserPackets: res.UserPackets, PacketErrors: res.PacketErrors,
			BitErrors: res.BitErrors, PayloadBits: res.PayloadBits,
		})
	}
	return suite, nil
}

// LoadGoldenSuite reads a fixture written by cmd/goldengen.
func LoadGoldenSuite(path string) (*GoldenSuite, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var suite GoldenSuite
	if err := json.Unmarshal(raw, &suite); err != nil {
		return nil, fmt.Errorf("conformance: parse %s: %w", path, err)
	}
	return &suite, nil
}

// WriteGoldenSuite serialises the suite with stable, reviewable
// formatting.
func WriteGoldenSuite(path string, suite *GoldenSuite) error {
	raw, err := json.MarshalIndent(suite, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// DiffGoldenSuites compares a freshly-generated suite against the
// stored fixture and returns one human-readable line per divergence —
// the "fails loudly with a readable diff" contract. An empty slice
// means bit-for-bit agreement.
func DiffGoldenSuites(want, got *GoldenSuite) []string {
	var diffs []string
	addf := func(format string, args ...any) { diffs = append(diffs, fmt.Sprintf(format, args...)) }

	wantCases := map[string]*GoldenCase{}
	for i := range want.Cases {
		wantCases[want.Cases[i].Name] = &want.Cases[i]
	}
	gotCases := map[string]*GoldenCase{}
	for i := range got.Cases {
		gotCases[got.Cases[i].Name] = &got.Cases[i]
	}
	for i := range want.Cases {
		w := &want.Cases[i]
		g, ok := gotCases[w.Name]
		if !ok {
			addf("case %s: missing from regeneration", w.Name)
			continue
		}
		diffCase(w, g, addf)
	}
	for i := range got.Cases {
		if _, ok := wantCases[got.Cases[i].Name]; !ok {
			addf("case %s: not in fixture (new case? regenerate the corpus)", got.Cases[i].Name)
		}
	}

	wantSims := map[string]*GoldenSim{}
	for i := range want.Sims {
		wantSims[want.Sims[i].Name] = &want.Sims[i]
	}
	for i := range got.Sims {
		g := &got.Sims[i]
		w, ok := wantSims[g.Name]
		if !ok {
			addf("sim %s: not in fixture (new sim? regenerate the corpus)", g.Name)
			continue
		}
		if *w != *g {
			addf("sim %s (%s, seed %d, %g dB): packet/bit counts diverged:\n  fixture: %+v\n  current: %+v",
				w.Name, w.Detector, w.Seed, w.SNRdB, *w, *g)
		}
	}
	for i := range want.Sims {
		if !containsSim(got.Sims, want.Sims[i].Name) {
			addf("sim %s: missing from regeneration", want.Sims[i].Name)
		}
	}
	return diffs
}

func diffCase(w, g *GoldenCase, addf func(string, ...any)) {
	//lint:ignore floatcmp the golden gate demands bit-exact reproduction; an epsilon would mask the drift it exists to catch
	if w.Seed != g.Seed || w.M != g.M || w.Nt != g.Nt || w.Nr != g.Nr || w.SNRdB != g.SNRdB || w.Vectors != g.Vectors {
		addf("case %s: parameters diverged (fixture seed=%d m=%d %dx%d snr=%g n=%d, current seed=%d m=%d %dx%d snr=%g n=%d)",
			w.Name, w.Seed, w.M, w.Nt, w.Nr, w.SNRdB, w.Vectors, g.Seed, g.M, g.Nt, g.Nr, g.SNRdB, g.Vectors)
		return
	}
	if !equalPairs(w.H, g.H) {
		addf("case %s: channel matrix H diverged — the RNG stream or channel synthesis changed, every detector diff below is downstream of this", w.Name)
	}
	for v := range w.Y {
		if v < len(g.Y) && !equalPairs(w.Y[v], g.Y[v]) {
			addf("case %s vector %d: received vector y diverged (input drift, not a detector change)", w.Name, v)
		}
	}
	for v := range w.OracleDist {
		if v < len(g.OracleDist) && w.OracleDist[v] != g.OracleDist[v] { //lint:ignore floatcmp golden drift check: oracle distances must reproduce bit-exactly
			addf("case %s vector %d: oracle ML distance %v -> %v", w.Name, v, w.OracleDist[v], g.OracleDist[v])
		}
	}
	gotDets := map[string]*GoldenDetector{}
	for i := range g.Detectors {
		gotDets[g.Detectors[i].Name] = &g.Detectors[i]
	}
	for i := range w.Detectors {
		wd := &w.Detectors[i]
		gd, ok := gotDets[wd.Name]
		if !ok {
			addf("case %s: detector %s missing from regeneration", w.Name, wd.Name)
			continue
		}
		for v := range wd.Indices {
			if v >= len(gd.Indices) {
				addf("case %s: detector %s produced %d vectors, fixture has %d", w.Name, wd.Name, len(gd.Indices), len(wd.Indices))
				break
			}
			if !equalIntSlices(wd.Indices[v], gd.Indices[v]) {
				addf("case %s vector %d: %s output diverged:\n  fixture: %v\n  current: %v",
					w.Name, v, wd.Name, wd.Indices[v], gd.Indices[v])
			}
		}
	}
	for i := range g.Detectors {
		found := false
		for j := range w.Detectors {
			if w.Detectors[j].Name == g.Detectors[i].Name {
				found = true
				break
			}
		}
		if !found {
			addf("case %s: detector %s not in fixture (new detector? regenerate the corpus)", w.Name, g.Detectors[i].Name)
		}
	}
}

func packMatrix(m *cmatrix.Matrix) [][2]float64 {
	out := make([][2]float64, len(m.Data))
	for i, v := range m.Data {
		out[i] = [2]float64{real(v), imag(v)}
	}
	return out
}

func packVectors(ys [][]complex128) [][][2]float64 {
	out := make([][][2]float64, len(ys))
	for i, y := range ys {
		out[i] = make([][2]float64, len(y))
		for j, v := range y {
			out[i][j] = [2]float64{real(v), imag(v)}
		}
	}
	return out
}

func equalPairs(a, b [][2]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equalIntSlices(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func containsSim(sims []GoldenSim, name string) bool {
	for i := range sims {
		if sims[i].Name == name {
			return true
		}
	}
	return false
}
