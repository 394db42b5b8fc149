package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

func parseForSuppressions(t *testing.T, src string) (suppressions, []Diagnostic) {
	t.Helper()
	sup, _, bad := parseForEntries(t, src)
	return sup, bad
}

func parseForEntries(t *testing.T, src string) (suppressions, []SuppressionEntry, []Diagnostic) {
	t.Helper()
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "s.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	return collectSuppressions(fset, file, []byte(src))
}

func TestSuppressionInline(t *testing.T) {
	sup, bad := parseForSuppressions(t, `package p

func f() int {
	return g() //lint:ignore determinism reason here
}
`)
	if len(bad) != 0 {
		t.Fatalf("unexpected malformed diags: %v", bad)
	}
	if sup["s.go"][4]["determinism"] != "reason here" {
		t.Errorf("inline ignore should silence its own line 4: %v", sup)
	}
}

func TestSuppressionStandalone(t *testing.T) {
	sup, bad := parseForSuppressions(t, `package p

func f() int {
	//lint:ignore floatcmp,noalloc the next line is intentional
	return g()
}
`)
	if len(bad) != 0 {
		t.Fatalf("unexpected malformed diags: %v", bad)
	}
	for _, a := range []string{"floatcmp", "noalloc"} {
		if sup["s.go"][5][a] != "the next line is intentional" {
			t.Errorf("standalone ignore should silence analyzer %s on line 5: %v", a, sup)
		}
	}
	if len(sup["s.go"][4]) != 0 {
		t.Errorf("standalone ignore must not silence its own line: %v", sup)
	}
}

func TestSuppressionMalformed(t *testing.T) {
	for _, src := range []string{
		"package p\n\n//lint:ignore\nfunc f() {}\n",
		"package p\n\n//lint:ignore floatcmp\nfunc f() {}\n",
	} {
		sup, bad := parseForSuppressions(t, src)
		if len(bad) != 1 {
			t.Errorf("reasonless ignore must be reported, got %v", bad)
			continue
		}
		if bad[0].Analyzer != "lint" {
			t.Errorf("malformed ignore reported under %q, want \"lint\"", bad[0].Analyzer)
		}
		if !strings.Contains(bad[0].Message, "malformed //lint:ignore") {
			t.Errorf("unexpected message %q", bad[0].Message)
		}
		if len(sup) != 0 {
			t.Errorf("malformed ignore must not suppress anything: %v", sup)
		}
	}
}

func TestFilterNeverDropsFrameworkDiags(t *testing.T) {
	sup := suppressions{"s.go": {4: {"lint": "r", "floatcmp": "r"}}}
	ds := []Diagnostic{
		{Pos: token.Position{Filename: "s.go", Line: 4}, Analyzer: "lint", Message: "malformed"},
		{Pos: token.Position{Filename: "s.go", Line: 4}, Analyzer: "floatcmp", Message: "cmp"},
	}
	out := sup.filter(ds)
	if len(out) != 1 || out[0].Analyzer != "lint" {
		t.Errorf("framework diagnostics must survive suppression, got %v", out)
	}
}

func TestSuppressionEntries(t *testing.T) {
	_, ents, bad := parseForEntries(t, `package p

func f() int {
	//lint:ignore determinism,floatcmp standalone reason
	x := g()
	return x + h() //lint:ignore noalloc inline reason
}
`)
	if len(bad) != 0 {
		t.Fatalf("unexpected malformed diags: %v", bad)
	}
	if len(ents) != 2 {
		t.Fatalf("want 2 entries, got %d: %v", len(ents), ents)
	}
	e0 := ents[0]
	if e0.Line != 5 || e0.CommentLine != 4 || e0.Reason != "standalone reason" ||
		len(e0.Analyzers) != 2 || e0.Analyzers[0] != "determinism" || e0.Analyzers[1] != "floatcmp" {
		t.Errorf("standalone entry wrong: %+v", e0)
	}
	e1 := ents[1]
	if e1.Line != 6 || e1.CommentLine != 6 || e1.Reason != "inline reason" ||
		len(e1.Analyzers) != 1 || e1.Analyzers[0] != "noalloc" {
		t.Errorf("inline entry wrong: %+v", e1)
	}
}

func TestNoallocDirectiveDetection(t *testing.T) {
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "d.go", `package p

// f is documented.
//
//flexcore:noalloc
func f() {}

// g mentions flexcore:noalloc in prose only.
func g() {}
`, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	var got []bool
	for _, d := range file.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok {
			got = append(got, hasNoallocDirective(fd))
		}
	}
	if len(got) != 2 || !got[0] || got[1] {
		t.Errorf("directive detection wrong: %v", got)
	}
}

func TestLockscopeIgnoreNamesHeldMutex(t *testing.T) {
	held := func(mus string) Diagnostic {
		return Diagnostic{Pos: token.Position{Filename: "s.go", Line: 4}, Analyzer: "lockscope",
			Message: "channel send" + heldPrefix + mus + heldSuffix + "blocking under a mutex stalls every contender"}
	}
	for _, tc := range []struct {
		reason string
		d      Diagnostic
		want   bool
	}{
		{"c.rmu bounds the read", held("c.rmu"), true},
		{"bounded under c.rmu", held("c.rmu"), true},
		{"the read mutex bounds it", held("c.rmu"), false},
		{"c.rmu bounds the read", held("c.wmu"), false},
		{"sc.rmu and c.rmux are other mutexes", held("c.rmu"), false},
		{"c.mu bounds it", held("c.mu, sh.mu"), false},
		{"c.mu and sh.mu bound it", held("c.mu, sh.mu"), true},
		{"any reason", Diagnostic{Analyzer: "floatcmp", Message: "exact compare"}, true},
	} {
		if got := silences(tc.reason, tc.d); got != tc.want {
			t.Errorf("silences(%q, %q) = %v, want %v", tc.reason, tc.d.Message, got, tc.want)
		}
	}
}
