// Command flexlint runs the repository's custom static-analysis suite
// (internal/lint): five stdlib-only analyzers that machine-enforce the
// zero-allocation, determinism, float-comparison, lock-scope and
// goroutine-joining contracts the tests and benchmarks otherwise only
// check dynamically.
//
// Usage:
//
//	flexlint [-escapes] [-json] [-suppressions] [-list] [patterns...]
//
// Patterns follow the usual ./... convention and default to ./... from
// the enclosing module root. Exit status is 0 when clean, 1 when any
// diagnostic survives suppression (or, with -suppressions, when any
// stale ignore exists), 2 on a load/usage error.
//
// With -escapes, flexlint additionally runs `go build -gcflags=-m`
// over the module and reports every value the compiler moved to the
// heap inside a //flexcore:noalloc function — the dynamic complement
// to the syntactic noalloc analyzer. Notes at an inlined call site (the
// callee's allocation) and notes about a string literal (a constant
// panic message) are not allocations at that line and are skipped.
// //lint:ignore noalloc comments silence both sides.
//
// With -json, findings are emitted as a JSON array of
// {file, line, col, analyzer, message} objects on stdout (an empty
// array when clean) — the machine-readable form CI archives as a
// build artifact.
//
// With -suppressions, flexlint reports every //lint:ignore comment in
// the selected packages instead of findings: its location, the
// analyzers it silences, its mandatory reason, and whether it is
// active (a raw finding still lands under it) or STALE (the finding
// it once silenced is gone — the ignore now pre-silences future
// findings and must be removed). Stale suppressions exit 1. Combines
// with -escapes so noalloc ignores backing escape-analysis findings
// count as active, and with -json for machine-readable output.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"

	"flexcore/internal/lint"
)

func main() {
	os.Exit(run())
}

func run() int {
	escapes := flag.Bool("escapes", false, "cross-check //flexcore:noalloc functions against go build -gcflags=-m escape analysis")
	jsonOut := flag.Bool("json", false, "emit results as JSON on stdout")
	suppr := flag.Bool("suppressions", false, "audit //lint:ignore comments instead of reporting findings; stale ignores exit 1")
	list := flag.Bool("list", false, "list the analyzers and exit")
	flag.Parse()

	analyzers := lint.DefaultAnalyzers()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-16s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	root, err := findModuleRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "flexlint:", err)
		return 2
	}
	mod, err := lint.LoadModule(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "flexlint:", err)
		return 2
	}

	var escapeDiags []lint.Diagnostic // raw (pre-suppression)
	if *escapes {
		out, err := escapeOutput(root)
		if err != nil {
			fmt.Fprintln(os.Stderr, "flexlint: -escapes:", err)
			return 2
		}
		escapeDiags = lint.EscapeDiagnostics(mod, out)
	}

	if *suppr {
		return reportSuppressions(root, mod, patterns, analyzers, escapeDiags, *jsonOut)
	}

	diags := lint.Run(mod, patterns, analyzers)
	if *escapes {
		diags = append(diags, mod.FilterSuppressed(escapeDiags)...)
	}

	if *jsonOut {
		if err := printJSONFindings(root, diags); err != nil {
			fmt.Fprintln(os.Stderr, "flexlint:", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Println(relDiag(root, d))
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "flexlint: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}

// jsonFinding is the machine-readable form of one diagnostic.
type jsonFinding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// printJSONFindings emits the findings as a JSON array (empty when
// clean — never null, so consumers can range unconditionally).
func printJSONFindings(root string, diags []lint.Diagnostic) error {
	out := make([]jsonFinding, 0, len(diags))
	for _, d := range diags {
		out = append(out, jsonFinding{
			File:     relPath(root, d.Pos.Filename),
			Line:     d.Pos.Line,
			Col:      d.Pos.Column,
			Analyzer: d.Analyzer,
			Message:  d.Message,
		})
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// jsonSuppression is the machine-readable form of one audited
// //lint:ignore comment.
type jsonSuppression struct {
	File      string   `json:"file"`
	Line      int      `json:"line"` // the comment's own line
	Analyzers []string `json:"analyzers"`
	Reason    string   `json:"reason"`
	Active    bool     `json:"active"`
}

// reportSuppressions prints the suppressions audit and exits nonzero
// when any ignore is stale: an ignore whose finding is gone silences
// nothing today and pre-silences tomorrow's findings at that line.
func reportSuppressions(root string, mod *lint.Module, patterns []string, analyzers []*lint.Analyzer, escapeDiags []lint.Diagnostic, jsonOut bool) int {
	audits := lint.AuditSuppressions(mod, patterns, analyzers, escapeDiags)
	stale := 0
	if jsonOut {
		out := make([]jsonSuppression, 0, len(audits))
		for _, a := range audits {
			if !a.Active {
				stale++
			}
			out = append(out, jsonSuppression{
				File:      relPath(root, a.Entry.File),
				Line:      a.Entry.CommentLine,
				Analyzers: a.Entry.Analyzers,
				Reason:    a.Entry.Reason,
				Active:    a.Active,
			})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(os.Stderr, "flexlint:", err)
			return 2
		}
	} else {
		for _, a := range audits {
			status := "active"
			if !a.Active {
				status = "STALE"
				stale++
			}
			fmt.Printf("%s:%d: [%s] %s — %s\n",
				relPath(root, a.Entry.File), a.Entry.CommentLine,
				strings.Join(a.Entry.Analyzers, ","), a.Entry.Reason, status)
		}
	}
	if stale > 0 {
		fmt.Fprintf(os.Stderr, "flexlint: %d stale suppression(s) — remove them or restore the contract they silenced\n", stale)
		return 1
	}
	return 0
}

// findModuleRoot walks up from the working directory to go.mod.
func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// escapeOutput captures the compiler's escape-analysis notes for every
// module package. -gcflags applies to the listed packages only, so the
// stdlib is not re-analyzed. The build itself writes no binaries.
func escapeOutput(root string) ([]byte, error) {
	cmd := exec.Command("go", "build", "-gcflags=-m", "./...")
	cmd.Dir = root
	out, err := cmd.CombinedOutput()
	if err != nil {
		return nil, fmt.Errorf("go build -gcflags=-m failed: %v\n%s", err, out)
	}
	return out, nil
}

// relPath makes a module file path root-relative (stable output for CI
// logs, artifacts and the golden tests).
func relPath(root, file string) string {
	if rel, err := filepath.Rel(root, file); err == nil {
		return rel
	}
	return file
}

// relDiag prints a diagnostic with the file path relative to the
// module root.
func relDiag(root string, d lint.Diagnostic) string {
	d.Pos.Filename = relPath(root, d.Pos.Filename)
	return d.String()
}
