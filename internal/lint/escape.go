package lint

import (
	"fmt"
	"go/ast"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
)

// This file implements the -escapes cross-check of cmd/flexlint: the
// AST-level noalloc analyzer proves the absence of allocation *syntax*
// inside //flexcore:noalloc functions; the escape cross-check parses
// the compiler's own escape-analysis notes (`go build -gcflags=-m`) and
// reports any value the compiler decided to heap-allocate inside an
// annotated function — catching allocations the syntax cannot show
// (escaping locals, spilled variables).

// FuncRange is the source extent of one annotated function.
type FuncRange struct {
	File      string // absolute path
	Name      string
	StartLine int
	EndLine   int
}

// NoallocRanges returns the source ranges of every function in the
// module annotated //flexcore:noalloc.
func (m *Module) NoallocRanges() []FuncRange {
	var out []FuncRange
	m.noallocFuncs(func(pkg *Package, file string, fd *ast.FuncDecl) {
		out = append(out, FuncRange{
			File:      file,
			Name:      fd.Name.Name,
			StartLine: m.Fset.Position(fd.Pos()).Line,
			EndLine:   m.Fset.Position(fd.End()).Line,
		})
	})
	return out
}

// noallocFuncs calls visit for every //flexcore:noalloc function of the
// module with a body.
func (m *Module) noallocFuncs(visit func(pkg *Package, file string, fd *ast.FuncDecl)) {
	for _, pkg := range m.Pkgs {
		for i, f := range pkg.Files {
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil && hasNoallocDirective(fd) {
					visit(pkg, pkg.Names[i], fd)
				}
			}
		}
	}
}

// growSites returns the file:line:col of every amortised grow in a
// //flexcore:noalloc function — the makes the AST pass accepts
// (amortisedGrows) — at the opening paren, where the compiler anchors
// a make's escape note.
func (m *Module) growSites() map[string]bool {
	sites := map[string]bool{}
	m.noallocFuncs(func(pkg *Package, _ string, fd *ast.FuncDecl) {
		for call := range amortisedGrows(pkg.Info, fd.Body) {
			p := m.Fset.Position(call.Lparen)
			sites[fmt.Sprintf("%s:%d:%d", p.Filename, p.Line, p.Column)] = true
		}
	})
	return sites
}

// escapeNote matches the -m lines that indicate a heap allocation:
//
//	internal/core/flexcore.go:217:12: make([]int, d.n) escapes to heap
//	internal/core/pool.go:77:8: moved to heap: w
var escapeNote = regexp.MustCompile(`^(.+\.go):(\d+):(\d+): (.*(?:escapes to heap|moved to heap).*)$`)

// inlineNote matches the -m line that marks an inlined call site:
//
//	internal/core/frame.go:177:17: inlining call to (*FlexCore).ensureScratch
var inlineNote = regexp.MustCompile(`^(.+\.go:\d+:\d+): inlining call to `)

// EscapeDiagnostics parses `go build -gcflags=-m` output and returns a
// diagnostic for every heap allocation the compiler placed inside an
// annotated //flexcore:noalloc function. File names in the build output
// are resolved relative to the module root. Three kinds of note are
// not a steady-state allocation at their line and are skipped:
//
//   - a note at the position of an inlined call: the allocation is the
//     callee's, judged at the callee's own source line (flagged there if
//     the callee is annotated; left to the AllocsPerRun gates if not),
//     just as the AST pass never follows calls;
//   - a note whose subject is a string literal: a constant panic
//     message boxes into static data;
//   - a note at an amortised grow: the make in the then-branch of
//     `if cap(x) < n` that the AST pass accepts too (amortisedGrows).
//
// The result is unfiltered; pass it through Module.FilterSuppressed so
// //lint:ignore noalloc comments cover both the AST and the escape
// findings.
func EscapeDiagnostics(mod *Module, buildOutput []byte) []Diagnostic {
	ranges := mod.NoallocRanges()
	if len(ranges) == 0 {
		return nil
	}
	byFile := map[string][]FuncRange{}
	for _, r := range ranges {
		byFile[r.File] = append(byFile[r.File], r)
	}
	lines := strings.Split(string(buildOutput), "\n")
	inlined := map[string]bool{} // file:line:col of every inlined call
	for _, line := range lines {
		if sub := inlineNote.FindStringSubmatch(strings.TrimSpace(line)); sub != nil {
			inlined[sub[1]] = true
		}
	}
	grows := mod.growSites()
	var out []Diagnostic
	for _, line := range lines {
		sub := escapeNote.FindStringSubmatch(strings.TrimSpace(line))
		if sub == nil || inlined[sub[1]+":"+sub[2]+":"+sub[3]] || isStringLiteralNote(sub[4]) {
			continue
		}
		file := sub[1]
		if !filepath.IsAbs(file) {
			file = filepath.Join(mod.Root, file)
		}
		if grows[file+":"+sub[2]+":"+sub[3]] {
			continue
		}
		lineNo, _ := strconv.Atoi(sub[2])
		col, _ := strconv.Atoi(sub[3])
		note := sub[4]
		for _, r := range byFile[file] {
			if lineNo >= r.StartLine && lineNo <= r.EndLine {
				d := Diagnostic{Analyzer: "noalloc", Message: fmt.Sprintf("escape analysis: %s inside //flexcore:noalloc %s", note, r.Name)}
				d.Pos.Filename = file
				d.Pos.Line = lineNo
				d.Pos.Column = col
				out = append(out, d)
				break
			}
		}
	}
	return out
}

// isStringLiteralNote reports whether an escape note's subject is a
// string literal: `"msg" escapes to heap`.
func isStringLiteralNote(note string) bool {
	q, err := strconv.QuotedPrefix(note)
	return err == nil && note[len(q):] == " escapes to heap"
}
