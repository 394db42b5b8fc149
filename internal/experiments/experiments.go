// Package experiments regenerates every table and figure of the
// FlexCore paper's evaluation (§5). Each generator prints the same rows
// or series the paper reports; DESIGN.md §4 maps generators to paper
// artefacts and EXPERIMENTS.md records paper-vs-measured values.
package experiments

import (
	"fmt"
	"io"
	"strings"
)

// Config scales the Monte-Carlo effort of the link-level experiments.
type Config struct {
	// Quick selects reduced trial counts for smoke runs; the full
	// settings reproduce the published shapes with tight error bars.
	Quick bool
	// Seed drives all randomness (experiments are fully deterministic).
	Seed uint64
	// Workers is the packet-level simulation parallelism of the
	// link-level experiments (0 = all cores). Results are bit-identical
	// for every worker count — parallelism only changes wall-clock time.
	Workers int
}

// packets returns the per-measurement packet count.
func (c Config) packets() int {
	if c.Quick {
		return 24
	}
	return 60
}

// calPackets returns the packet count per calibration PER evaluation.
func (c Config) calPackets() int {
	if c.Quick {
		return 16
	}
	return 40
}

// calIterations returns the SNR bisection depth.
func (c Config) calIterations() int {
	if c.Quick {
		return 6
	}
	return 8
}

// subcarriers is the simulated data-subcarrier count, quick and full
// alike (NCBPS must stay a multiple of 16 for every constellation in
// use).
const subcarriers = 8

// ofdmSymbols returns the packet length in OFDM symbols. Longer packets
// move the PER anchors toward the paper's 500-kByte regime; the full
// setting is still far shorter than 500 kB (see DESIGN.md §2), which the
// AP-correlation of the experiment channels compensates for.
func (c Config) ofdmSymbols() int {
	if c.Quick {
		return 8
	}
	return 12
}

// Table is a minimal fixed-width text table renderer.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// Add appends a row of stringified cells.
func (t *Table) Add(cells ...string) { t.Rows = append(t.Rows, cells) }

// Fprint renders the table.
func (t *Table) Fprint(w io.Writer) {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	fmt.Fprintf(w, "\n%s\n", t.Title)
	fmt.Fprintln(w, strings.Repeat("=", len(t.Title)))
	line := func(cells []string) {
		for i, c := range cells {
			if i < len(widths) {
				fmt.Fprintf(w, "%-*s  ", widths[i], c)
			} else {
				fmt.Fprintf(w, "%s  ", c)
			}
		}
		fmt.Fprintln(w)
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.Rows {
		line(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
}

// CSV renders the table as RFC-4180-ish comma-separated values (title
// and notes as comment lines) for plotting tools.
func (t *Table) CSV(w io.Writer) {
	fmt.Fprintf(w, "# %s\n", t.Title)
	writeCSVRow(w, t.Header)
	for _, r := range t.Rows {
		writeCSVRow(w, r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
}

func writeCSVRow(w io.Writer, cells []string) {
	for i, c := range cells {
		if i > 0 {
			fmt.Fprint(w, ",")
		}
		if strings.ContainsAny(c, ",\"\n") {
			c = "\"" + strings.ReplaceAll(c, "\"", "\"\"") + "\""
		}
		fmt.Fprint(w, c)
	}
	fmt.Fprintln(w)
}

// f1, f2, f3 format floats at fixed precision; e2 scientific.
func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func e2(v float64) string { return fmt.Sprintf("%.2e", v) }
func d(v int64) string    { return fmt.Sprintf("%d", v) }
