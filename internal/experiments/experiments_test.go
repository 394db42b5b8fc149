package experiments

import (
	"bytes"
	"fmt"
	"io"
	"strconv"
	"strings"
	"testing"
)

func quickCfg() Config { return Config{Quick: true, Seed: 42} }

// cell parses a numeric table cell.
func cell(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
	if err != nil {
		t.Fatalf("cell %q not numeric: %v", s, err)
	}
	return v
}

func TestTableRenderer(t *testing.T) {
	tab := &Table{Title: "T", Header: []string{"a", "bb"}, Notes: []string{"n"}}
	tab.Add("1", "2")
	var buf bytes.Buffer
	tab.Fprint(&buf)
	out := buf.String()
	for _, want := range []string{"T", "a", "bb", "1", "2", "note: n"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered table missing %q:\n%s", want, out)
		}
	}
}

func TestTable1ComplexityGrowsExponentially(t *testing.T) {
	if testing.Short() {
		t.Skip("link-level experiment")
	}
	tab, err := Table1(quickCfg(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("%d rows", len(tab.Rows))
	}
	// GFLOPS must grow strictly and super-linearly with antennas, and
	// throughput must grow too.
	var g, tput []float64
	for _, r := range tab.Rows {
		tput = append(tput, cell(t, r[1]))
		g = append(g, cell(t, r[2]))
	}
	for i := 1; i < len(g); i++ {
		if g[i] <= g[i-1] {
			t.Fatalf("GFLOPS not increasing: %v", g)
		}
	}
	// Strong growth overall: ≥20× from 2×2 to 8×8 (the paper measures
	// ≈700×; our Schnorr–Euchner decoder prunes harder at small sizes,
	// but the exponential trend must remain unmistakable).
	if g[3]/g[0] < 20 {
		t.Fatalf("complexity growth too flat: %v", g)
	}
	if tput[3] <= tput[0] {
		t.Fatalf("throughput not growing with antennas: %v", tput)
	}
}

func TestTable2MatchesPaperStructure(t *testing.T) {
	if testing.Short() {
		t.Skip("link-level experiment")
	}
	tab, err := Table2(quickCfg(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("%d rows", len(tab.Rows))
	}
	for _, r := range tab.Rows[:2] {
		qr := cell(t, r[1])
		pre32, pre128 := cell(t, r[2]), cell(t, r[3])
		det32, det128 := cell(t, r[4]), cell(t, r[5])
		// The paper's structural claims: pre-processing is negligible
		// next to the QR decomposition; detection dominates and scales
		// linearly with N_PE.
		if pre32 >= qr || pre128 >= qr {
			t.Fatalf("pre-processing (%v/%v) not below QR (%v)", pre32, pre128, qr)
		}
		if det32 >= det128 {
			t.Fatal("detection cost must grow with NPE")
		}
		ratio := det128 / det32
		if ratio < 3.5 || ratio > 4.5 {
			t.Fatalf("detection cost ratio %v, want ≈4 (128/32)", ratio)
		}
	}
}

func TestTable3Static(t *testing.T) {
	tab, err := Table3(quickCfg(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("%d rows", len(tab.Rows))
	}
	if tab.Rows[0][1] != "FlexCore" || tab.Rows[1][1] != "FCSD" {
		t.Fatal("row labels wrong")
	}
	// Table 3 constants must appear verbatim.
	if tab.Rows[0][2] != "3206" || tab.Rows[3][5] != "10501" {
		t.Fatal("paper constants not reproduced")
	}
}

func TestFig11SpeedupShape(t *testing.T) {
	tabs, err := Fig11(quickCfg(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(tabs) != 2 {
		t.Fatalf("%d tables", len(tabs))
	}
	l2 := tabs[1]
	// |E|=128 row at Nsc=16384 carries the ≈19× headline.
	var headline float64
	for _, r := range l2.Rows {
		if r[0] == "128" {
			headline = cell(t, r[3])
		}
	}
	if headline < 16 || headline > 24 {
		t.Fatalf("L=2 |E|=128 speedup %v outside ≈19× band", headline)
	}
	// Speedup decreasing in |E| within each column.
	for col := 1; col <= 3; col++ {
		prev := 1e18
		for _, r := range l2.Rows {
			v := cell(t, r[col])
			if v >= prev {
				t.Fatalf("speedup not decreasing in column %d", col)
			}
			prev = v
		}
	}
}

func TestFig13Shape(t *testing.T) {
	tabs, err := Fig13(quickCfg(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(tabs) != 3 {
		t.Fatalf("%d tables", len(tabs))
	}
	// In every group the FCSD column must sit above FlexCore's at equal M.
	for gi, tab := range tabs {
		for _, r := range tab.Rows {
			if strings.Contains(r[1], "×") || strings.Contains(r[2], "×") {
				continue
			}
			flex, fcsd := cell(t, r[1]), cell(t, r[2])
			if fcsd <= flex {
				t.Fatalf("group %d M=%s: FCSD J/bit %v not above FlexCore %v", gi, r[0], fcsd, flex)
			}
		}
	}
}

func TestFig14ModelTracksSimulation(t *testing.T) {
	tabs, err := Fig14(quickCfg(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(tabs) != 2 {
		t.Fatalf("%d tables", len(tabs))
	}
	for ti, tab := range tabs {
		// k=1 and k=2 must agree within a factor band; deep tails are
		// noise-limited in quick mode.
		for _, r := range tab.Rows[:2] {
			model, sim := cell(t, r[1]), cell(t, r[2])
			if sim == 0 {
				continue
			}
			ratio := model / sim
			if ratio < 0.5 || ratio > 2.0 {
				t.Fatalf("table %d k=%s: model %v vs sim %v", ti, r[0], model, sim)
			}
		}
		// Model must be strictly decreasing in k.
		prev := 1e18
		for _, r := range tab.Rows {
			v := cell(t, r[1])
			if v >= prev {
				t.Fatal("model not decreasing in k")
			}
			prev = v
		}
	}
}

func TestFig9HeadlinePanelShape(t *testing.T) {
	if testing.Short() {
		t.Skip("link-level experiment")
	}
	// One full quick panel (16-QAM 8×8 at PER_ML 0.1) must reproduce the
	// paper's central shape: FlexCore beats the FCSD at the shared path
	// count, improves monotonically-ish with more elements, clearly beats
	// MMSE at moderate budgets, and approaches the ML bound.
	tabs, err := Fig9(quickCfg(), nil, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	tab := tabs[0]
	flex := map[int]float64{}
	var fcsd16 float64
	for _, r := range tab.Rows {
		npe := int(cell(t, r[0]))
		flex[npe] = cell(t, r[1])
		if npe == 16 {
			fcsd16 = cell(t, r[2])
		}
	}
	if flex[16] <= fcsd16 {
		t.Fatalf("FlexCore(16) %.1f not above FCSD(16) %.1f", flex[16], fcsd16)
	}
	if !(flex[1] < flex[16] && flex[16] < flex[128]) {
		t.Fatalf("FlexCore not improving with PEs: %v", flex)
	}
	// ML and MMSE bounds live in the notes; parse them loosely.
	var mlT, mmseT float64
	if _, err := fmt.Sscanf(tab.Notes[0], "ML bound %f", &mlT); err != nil {
		t.Fatalf("cannot parse ML bound: %v", err)
	}
	idx := strings.Index(tab.Notes[0], "MMSE ")
	if idx < 0 {
		t.Fatal("MMSE bound missing")
	}
	if _, err := fmt.Sscanf(tab.Notes[0][idx:], "MMSE %f", &mmseT); err != nil {
		t.Fatal(err)
	}
	if flex[64] <= mmseT {
		t.Fatalf("FlexCore(64) %.1f not above MMSE %.1f", flex[64], mmseT)
	}
	if flex[128] < 0.75*mlT {
		t.Fatalf("FlexCore(128) %.1f too far below ML %.1f", flex[128], mlT)
	}
}

func TestRunDispatcher(t *testing.T) {
	if _, err := RunTables("table3", quickCfg(), io.Discard); err != nil {
		t.Fatal(err)
	}
	if _, err := RunTables("nonsense", quickCfg(), io.Discard); err == nil {
		t.Fatal("unknown experiment accepted")
	}
	if len(Names) != 9 {
		t.Fatalf("%d experiments registered, want 9 (3 tables + 6 figures)", len(Names))
	}
}

func TestTableCSV(t *testing.T) {
	tab := &Table{Title: "T", Header: []string{"a", "b"}, Notes: []string{"n"}}
	tab.Add("1", `has,"comma`)
	var buf bytes.Buffer
	tab.CSV(&buf)
	out := buf.String()
	for _, want := range []string{"# T", "a,b", `1,"has,""comma"`, "# n"} {
		if !strings.Contains(out, want) {
			t.Fatalf("CSV missing %q:\n%s", want, out)
		}
	}
}
