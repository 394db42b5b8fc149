package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"maps"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Package is one loaded, type-checked module package.
type Package struct {
	Path  string // import path
	Dir   string // absolute directory
	Files []*ast.File
	Names []string          // file path per Files entry
	Src   map[string][]byte // file path → source bytes
	Types *types.Package
	Info  *types.Info

	imports []string // module-local imports (for topo ordering)
}

// Module is a loaded Go module: every non-test package under its root,
// type-checked in dependency order against one shared FileSet. Test
// files (_test.go) and testdata directories are excluded — the
// contracts flexlint enforces are properties of the shipped code.
type Module struct {
	Root string // absolute module root (directory of go.mod)
	Path string // module path from go.mod
	Fset *token.FileSet
	Pkgs []*Package // dependency order

	sup     suppressions
	supEnts []SuppressionEntry
	supDiag []Diagnostic
	supOnce sync.Once
}

// stdImporter is the shared stdlib importer: the "source" importer
// type-checks standard-library packages from GOROOT source, so no
// pre-built export data is needed. It is package-global so repeated
// loads in one process (the test suite) type-check the stdlib closure
// once. The importer owns a private FileSet; stdlib positions are never
// reported, so the split from the module FileSet is harmless.
var stdImporter = sync.OnceValue(func() types.ImporterFrom {
	return importer.ForCompiler(token.NewFileSet(), "source", nil).(types.ImporterFrom)
})

var stdImportMu sync.Mutex

// moduleImporter resolves module-local import paths from the loader's
// cache and everything else (the stdlib) through stdImporter.
type moduleImporter struct {
	modulePath string
	loaded     map[string]*types.Package
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	return m.ImportFrom(path, "", 0)
}

func (m *moduleImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if path == m.modulePath || strings.HasPrefix(path, m.modulePath+"/") {
		if pkg := m.loaded[path]; pkg != nil {
			return pkg, nil
		}
		return nil, fmt.Errorf("lint: module package %q not loaded (import cycle or unresolved dependency)", path)
	}
	stdImportMu.Lock()
	defer stdImportMu.Unlock()
	return stdImporter().ImportFrom(path, dir, mode)
}

// LoadModule loads and type-checks every non-test package of the Go
// module rooted at root (the directory containing go.mod).
func LoadModule(root string) (*Module, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	mod := &Module{Root: root, Path: modPath, Fset: token.NewFileSet()}

	dirs, err := packageDirs(root)
	if err != nil {
		return nil, err
	}
	byPath := make(map[string]*Package, len(dirs))
	for _, dir := range dirs {
		pkg, err := mod.parseDir(dir)
		if err != nil {
			return nil, err
		}
		if pkg != nil {
			byPath[pkg.Path] = pkg
		}
	}

	order, err := topoOrder(byPath)
	if err != nil {
		return nil, err
	}
	imp := &moduleImporter{modulePath: modPath, loaded: map[string]*types.Package{}}
	for _, pkg := range order {
		if err := mod.typeCheck(pkg, imp); err != nil {
			return nil, err
		}
		imp.loaded[pkg.Path] = pkg.Types
	}
	mod.Pkgs = order
	return mod, nil
}

// Match returns the loaded packages selected by patterns. Supported
// patterns: "./..." (everything), "./dir/..." (a subtree), "./dir" or
// "dir" (one directory), or a full import path. A nil or empty pattern
// list selects everything.
func (m *Module) Match(patterns []string) []*Package {
	if len(patterns) == 0 {
		return m.Pkgs
	}
	var out []*Package
	seen := map[string]bool{}
	for _, pat := range patterns {
		for _, pkg := range m.Pkgs {
			if seen[pkg.Path] || !m.matchOne(pkg, pat) {
				continue
			}
			seen[pkg.Path] = true
			out = append(out, pkg)
		}
	}
	return out
}

func (m *Module) matchOne(pkg *Package, pat string) bool {
	pat = strings.TrimSuffix(strings.TrimPrefix(pat, "./"), "/")
	if pat == "..." || pat == "." || pat == "" {
		return true
	}
	rel := strings.TrimPrefix(strings.TrimPrefix(pkg.Path, m.Path), "/")
	if rel == "" {
		rel = "."
	}
	if sub, ok := strings.CutSuffix(pat, "/..."); ok {
		return rel == sub || strings.HasPrefix(rel, sub+"/") || pkg.Path == sub || strings.HasPrefix(pkg.Path, sub+"/")
	}
	return rel == pat || pkg.Path == pat
}

// Suppressions returns the module-wide suppression table, the parsed
// //lint:ignore entries and the diagnostics for malformed ignore
// comments, computed once.
func (m *Module) Suppressions() (suppressions, []SuppressionEntry, []Diagnostic) {
	m.supOnce.Do(func() {
		m.sup = suppressions{}
		for _, pkg := range m.Pkgs {
			for i, f := range pkg.Files {
				s, ents, bad := collectSuppressions(m.Fset, f, pkg.Src[pkg.Names[i]])
				maps.Copy(m.sup, s) // one key per file: nothing to merge
				m.supEnts = append(m.supEnts, ents...)
				m.supDiag = append(m.supDiag, bad...)
			}
		}
		sort.Slice(m.supEnts, func(i, j int) bool {
			a, b := m.supEnts[i], m.supEnts[j]
			if a.File != b.File {
				return a.File < b.File
			}
			return a.Line < b.Line
		})
	})
	return m.sup, m.supEnts, m.supDiag
}

// SuppressionEntries returns every //lint:ignore comment of the
// module, sorted by file and line.
func (m *Module) SuppressionEntries() []SuppressionEntry {
	_, ents, _ := m.Suppressions()
	return ents
}

// FilterSuppressed drops the diagnostics silenced by //lint:ignore
// comments anywhere in the module and sorts the remainder.
func (m *Module) FilterSuppressed(ds []Diagnostic) []Diagnostic {
	sup, _, _ := m.Suppressions()
	out := sup.filter(ds)
	sortDiagnostics(out)
	return out
}

// modulePath extracts the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", fmt.Errorf("lint: not a module root: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			p := strings.TrimSpace(rest)
			if unq, err := strconv.Unquote(p); err == nil {
				p = unq
			}
			if p != "" {
				return p, nil
			}
		}
	}
	return "", fmt.Errorf("lint: no module line in %s", gomod)
}

// packageDirs lists the directories under root that hold at least one
// non-test .go file, skipping testdata, hidden and underscore dirs and
// nested modules.
func packageDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root {
			if name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir // nested module
			}
		}
		ents, err := os.ReadDir(path)
		if err != nil {
			return err
		}
		for _, e := range ents {
			if n := e.Name(); !e.IsDir() && strings.HasSuffix(n, ".go") && !strings.HasSuffix(n, "_test.go") {
				dirs = append(dirs, path)
				break
			}
		}
		return nil
	})
	sort.Strings(dirs)
	return dirs, err
}

// parseDir parses the non-test files of one directory as one package.
func (m *Module) parseDir(dir string) (*Package, error) {
	rel, err := filepath.Rel(m.Root, dir)
	if err != nil {
		return nil, err
	}
	importPath := m.Path
	if rel != "." {
		importPath = m.Path + "/" + filepath.ToSlash(rel)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	pkg := &Package{Path: importPath, Dir: dir, Src: map[string][]byte{}}
	name := ""
	for _, e := range ents {
		fn := e.Name()
		if e.IsDir() || !strings.HasSuffix(fn, ".go") || strings.HasSuffix(fn, "_test.go") {
			continue
		}
		full := filepath.Join(dir, fn)
		src, err := os.ReadFile(full)
		if err != nil {
			return nil, err
		}
		file, err := parser.ParseFile(m.Fset, full, src, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		if name == "" {
			name = file.Name.Name
		} else if file.Name.Name != name {
			return nil, fmt.Errorf("lint: %s: multiple packages in one directory (%s and %s)", dir, name, file.Name.Name)
		}
		pkg.Files = append(pkg.Files, file)
		pkg.Names = append(pkg.Names, full)
		pkg.Src[full] = src
		for _, imp := range file.Imports {
			p, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if p == m.Path || strings.HasPrefix(p, m.Path+"/") {
				pkg.imports = append(pkg.imports, p)
			}
		}
	}
	if len(pkg.Files) == 0 {
		return nil, nil
	}
	return pkg, nil
}

// topoOrder sorts packages so every module-local dependency precedes
// its importers, rejecting import cycles.
func topoOrder(byPath map[string]*Package) ([]*Package, error) {
	paths := make([]string, 0, len(byPath))
	for p := range byPath {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	const (
		unvisited = 0
		visiting  = 1
		done      = 2
	)
	state := map[string]int{}
	var order []*Package
	var visit func(string) error
	visit = func(p string) error {
		switch state[p] {
		case done:
			return nil
		case visiting:
			return fmt.Errorf("lint: import cycle through %q", p)
		}
		state[p] = visiting
		pkg := byPath[p]
		for _, dep := range pkg.imports {
			if byPath[dep] != nil {
				if err := visit(dep); err != nil {
					return err
				}
			}
		}
		state[p] = done
		order = append(order, pkg)
		return nil
	}
	for _, p := range paths {
		if err := visit(p); err != nil {
			return nil, err
		}
	}
	return order, nil
}

// typeCheck runs go/types over one parsed package.
func (m *Module) typeCheck(pkg *Package, imp types.ImporterFrom) error {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	var firstErr error
	conf := types.Config{
		Importer: imp,
		Error: func(err error) {
			if firstErr == nil {
				firstErr = err
			}
		},
	}
	tpkg, err := conf.Check(pkg.Path, m.Fset, pkg.Files, info)
	if firstErr != nil {
		return fmt.Errorf("lint: type error: %w", firstErr)
	}
	if err != nil {
		return fmt.Errorf("lint: type error: %w", err)
	}
	pkg.Types = tpkg
	pkg.Info = info
	return nil
}
