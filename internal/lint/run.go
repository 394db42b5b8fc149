package lint

import "strconv"

// Run executes the analyzers over the packages of mod selected by
// patterns (nil = every package), applies //lint:ignore suppressions
// and returns the surviving diagnostics sorted by position. Malformed
// suppression comments in the analyzed packages are reported under the
// "lint" analyzer name and cannot themselves be suppressed.
func Run(mod *Module, patterns []string, analyzers []*Analyzer) []Diagnostic {
	return mod.FilterSuppressed(RunRaw(mod, patterns, analyzers))
}

// RunRaw executes the analyzers like Run but keeps every diagnostic,
// including ones a //lint:ignore would silence — the substrate of the
// suppressions audit, which needs to know whether an ignore still has
// a finding under it.
func RunRaw(mod *Module, patterns []string, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	selected := mod.Match(patterns)
	selectedSet := map[string]bool{}
	for _, pkg := range selected {
		selectedSet[pkg.Path] = true
	}
	for _, pkg := range selected {
		for _, a := range analyzers {
			if !a.AppliesTo(pkg.Path) {
				continue
			}
			pass := &Pass{
				Analyzer: a,
				Fset:     mod.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				diags:    &diags,
			}
			a.Run(pass)
		}
	}
	_, _, bad := mod.Suppressions()
	for _, d := range bad {
		if selectedSet[pkgPathForFile(mod, d.Pos.Filename)] {
			diags = append(diags, d)
		}
	}
	return diags
}

// pkgPathForFile maps a file name back to its package import path.
func pkgPathForFile(mod *Module, filename string) string {
	for _, pkg := range mod.Pkgs {
		if _, ok := pkg.Src[filename]; ok {
			return pkg.Path
		}
	}
	return ""
}

// DefaultAnalyzers returns the five analyzers flexlint ships: the
// repository's zero-allocation, determinism and float-comparison
// contracts for the compute path, plus the two concurrency contracts
// of the serving layer (lock scope, goroutine joining). Each one
// alone catches some seeded bug of its class that no test, alloc gate
// or fuzzer catches (DESIGN.md §10.1). A //lint:ignore naming any
// other analyzer is itself a finding.
func DefaultAnalyzers() []*Analyzer {
	return []*Analyzer{Noalloc, Determinism, Floatcmp, Lockscope, Waitdiscipline}
}

// shipped reports whether name is one of DefaultAnalyzers.
func shipped(name string) bool {
	for _, a := range DefaultAnalyzers() {
		if a.Name == name {
			return true
		}
	}
	return false
}

// SuppressionAudit classifies one //lint:ignore comment: Active when
// at least one raw (pre-suppression) diagnostic it silences still
// lands on its line, stale otherwise. Stale ignores are
// worse than dead code — they pre-silence future findings at that
// line — so flexlint -suppressions reports them and exits nonzero.
type SuppressionAudit struct {
	Entry  SuppressionEntry
	Active bool
}

// AuditSuppressions audits every suppression comment in the packages
// selected by patterns against the raw findings of the analyzers plus
// any extra raw diagnostics (the -escapes side when enabled).
func AuditSuppressions(mod *Module, patterns []string, analyzers []*Analyzer, extra []Diagnostic) []SuppressionAudit {
	raw := append(RunRaw(mod, patterns, analyzers), extra...)
	hit := map[string][]Diagnostic{}
	for _, d := range raw {
		k := suppressionKey(d.Pos.Filename, d.Pos.Line, d.Analyzer)
		hit[k] = append(hit[k], d)
	}
	selected := map[string]bool{}
	for _, pkg := range mod.Match(patterns) {
		selected[pkg.Path] = true
	}
	var out []SuppressionAudit
	for _, e := range mod.SuppressionEntries() {
		if !selected[pkgPathForFile(mod, e.File)] {
			continue
		}
		active := false
		for _, a := range e.Analyzers {
			for _, d := range hit[suppressionKey(e.File, e.Line, a)] {
				active = active || silences(e.Reason, d)
			}
		}
		out = append(out, SuppressionAudit{Entry: e, Active: active})
	}
	return out
}

func suppressionKey(file string, line int, analyzer string) string {
	return file + "\x00" + analyzer + "\x00" + strconv.Itoa(line)
}
