// Package lint is a stdlib-only static-analysis framework (go/ast +
// go/parser + go/types + go/importer; no golang.org/x/tools) that
// machine-enforces this repository's structural contracts: determinism
// (bit-identical results for any worker count), allocation-free
// steady-state hot paths, reviewed float equality, and neither blocking
// under a mutex nor an unjoined goroutine in the serving layer. The
// framework is deliberately small — analyzers, passes, diagnostics,
// line-level suppressions — and is driven either by cmd/flexlint over
// the whole module or by the `// want`-comment test harness in want.go
// over fixture packages.
//
// Suppression: a finding is silenced by a comment
//
//	//lint:ignore <analyzer>[,<analyzer>...] <reason>
//
// either at the end of the offending line or on its own line directly
// above it. The reason is mandatory, and every name must be an
// analyzer flexlint ships; a lockscope ignore silences a finding only
// if its reason names the held mutex (e.g. c.rmu); a reasonless ignore or one naming an
// unknown analyzer is itself reported (analyzer "lint"). Suppressions
// are the escape hatch for sites where the flagged construct is
// provably correct — an exact float compare of two computed values, an
// amortized grow-path append — and double as in-source documentation
// of why.
//
// Function annotation: a declaration whose doc comment carries the
// directive
//
//	//flexcore:noalloc
//
// opts into the noalloc analyzer (and the -escapes cross-check of
// cmd/flexlint): its body must contain no allocation sites.
package lint

import (
	"cmp"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"
)

// Analyzer is one named check over a type-checked package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and suppressions.
	Name string
	// Doc is a one-line description (shown by flexlint -list).
	Doc string
	// Packages restricts the analyzer to packages whose import path
	// contains one of these fragments (segment-wise, e.g.
	// "internal/core"). Empty applies the analyzer everywhere. The
	// restriction is applied by Run, not by the test harness, so
	// fixtures exercise analyzers directly.
	Packages []string
	// Run reports findings on one package through pass.Reportf.
	Run func(pass *Pass)
}

// AppliesTo reports whether the analyzer covers a package import path.
func (a *Analyzer) AppliesTo(pkgPath string) bool {
	return len(a.Packages) == 0 || pathMatches(pkgPath, a.Packages)
}

// pathMatches reports whether an import path contains one of the
// fragments segment-wise.
func pathMatches(pkgPath string, frags []string) bool {
	for _, frag := range frags {
		if pkgPath == frag || strings.HasSuffix(pkgPath, "/"+frag) ||
			strings.Contains(pkgPath, "/"+frag+"/") || strings.HasPrefix(pkgPath, frag+"/") {
			return true
		}
	}
	return false
}

// Pass carries one analyzer run over one package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// TypeOf returns the type of an expression, or nil.
func (p *Pass) TypeOf(e ast.Expr) types.Type { return p.Info.TypeOf(e) }

// Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String formats the finding in the conventional file:line:col style.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s [%s]", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message, d.Analyzer)
}

// sortDiagnostics orders findings by file, line, column, analyzer.
func sortDiagnostics(ds []Diagnostic) {
	slices.SortFunc(ds, func(a, b Diagnostic) int {
		return cmp.Or(
			strings.Compare(a.Pos.Filename, b.Pos.Filename),
			cmp.Compare(a.Pos.Line, b.Pos.Line),
			cmp.Compare(a.Pos.Column, b.Pos.Column),
			strings.Compare(a.Analyzer, b.Analyzer),
			strings.Compare(a.Message, b.Message),
		)
	})
}

// ignorePrefix is the suppression-comment marker (after "//").
const ignorePrefix = "lint:ignore"

// suppressions maps file → line → silenced analyzer name → the reason
// of the ignore naming it there (newline-joined when several do).
type suppressions map[string]map[int]map[string]string

// SuppressionEntry is one parsed //lint:ignore comment — the auditable
// record behind flexlint -suppressions.
type SuppressionEntry struct {
	// File is the file holding the comment.
	File string
	// Line is the line the comment silences (the next line for a
	// stand-alone comment, its own for an end-of-line one).
	Line int
	// CommentLine is the comment's own line (what an editor jumps to).
	CommentLine int
	// Analyzers are the silenced analyzer names.
	Analyzers []string
	// Reason is the mandatory justification text.
	Reason string
}

// collectSuppressions scans the comments of a parsed file and returns
// the line-level suppression table, the parsed entries (for the
// suppressions audit) and diagnostics for malformed ignore comments
// and for names that are not shipped analyzers.
// src is the file's source, used to decide whether a suppression
// comment shares its line with code (silences that line) or stands
// alone (silences the next line).
func collectSuppressions(fset *token.FileSet, file *ast.File, src []byte) (suppressions, []SuppressionEntry, []Diagnostic) {
	sup := suppressions{}
	var entries []SuppressionEntry
	var bad []Diagnostic
	lines := strings.Split(string(src), "\n")
	for _, group := range file.Comments {
		for _, c := range group.List {
			text := strings.TrimPrefix(c.Text, "//")
			text = strings.TrimSpace(text)
			if !strings.HasPrefix(text, ignorePrefix) {
				continue
			}
			pos := fset.Position(c.Pos())
			rest := strings.TrimSpace(strings.TrimPrefix(text, ignorePrefix))
			names, reason, ok := strings.Cut(rest, " ")
			if !ok || names == "" || strings.TrimSpace(reason) == "" {
				bad = append(bad, Diagnostic{
					Pos:      pos,
					Analyzer: "lint",
					Message:  "malformed //lint:ignore: need \"//lint:ignore <analyzer>[,...] <reason>\" with a non-empty reason",
				})
				continue
			}
			line := pos.Line
			// A stand-alone comment silences the line below it; an
			// end-of-line comment silences its own line.
			if line-1 < len(lines) {
				before := lines[line-1][:pos.Column-1]
				if strings.TrimSpace(before) == "" {
					line++
				}
			}
			m := sup[pos.Filename]
			if m == nil {
				m = map[int]map[string]string{}
				sup[pos.Filename] = m
			}
			set := m[line]
			if set == nil {
				set = map[string]string{}
				m[line] = set
			}
			entry := SuppressionEntry{
				File:        pos.Filename,
				Line:        line,
				CommentLine: pos.Line,
				Reason:      strings.TrimSpace(reason),
			}
			for _, n := range strings.Split(names, ",") {
				n = strings.TrimSpace(n)
				if !shipped(n) {
					bad = append(bad, Diagnostic{
						Pos:      pos,
						Analyzer: "lint",
						Message:  fmt.Sprintf("//lint:ignore names %q, which is not an analyzer flexlint ships — it silences nothing; remove it", n),
					})
				}
				set[n] = strings.TrimSpace(set[n] + "\n" + entry.Reason)
				entry.Analyzers = append(entry.Analyzers, n)
			}
			entries = append(entries, entry)
		}
	}
	return sup, entries, bad
}

// filter drops diagnostics silenced by s. Framework ("lint")
// diagnostics are never suppressible.
func (s suppressions) filter(ds []Diagnostic) []Diagnostic {
	out := ds[:0]
	for _, d := range ds {
		if d.Analyzer != "lint" {
			if reason, ok := s[d.Pos.Filename][d.Pos.Line][d.Analyzer]; ok && silences(reason, d) {
				continue
			}
		}
		out = append(out, d)
	}
	return out
}

// silences reports whether an ignore with this reason, naming d's
// analyzer on d's line, silences d: it does, except that a lockscope
// finding is silenced only when the reason names every mutex the
// finding reports held — an ignore written for one mutex must not hide
// a new hold of another on its line.
func silences(reason string, d Diagnostic) bool {
	if d.Analyzer != "lockscope" {
		return true
	}
	for _, mu := range lockscopeHeld(d.Message) {
		if !namesMutex(reason, mu) {
			return false
		}
	}
	return true
}

// NoallocDirective is the doc-comment directive that opts a function
// into the noalloc analyzer.
const NoallocDirective = "//flexcore:noalloc"

// hasNoallocDirective reports whether a function declaration carries
// the //flexcore:noalloc directive in its doc comment.
func hasNoallocDirective(decl *ast.FuncDecl) bool {
	if decl.Doc == nil {
		return false
	}
	for _, c := range decl.Doc.List {
		if strings.TrimSpace(c.Text) == NoallocDirective {
			return true
		}
	}
	return false
}
