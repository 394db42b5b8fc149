package lint

import (
	"flag"
	"fmt"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestEscapeDiagnostics feeds synthetic `go build -gcflags=-m` output
// through the escape cross-check: a heap note inside an annotated
// function must be reported (under the noalloc analyzer name, so
// //lint:ignore noalloc covers it); notes outside annotated functions,
// non-allocation notes, notes at an inlined call site, notes whose
// subject is a string literal and notes at an amortised grow (a make
// in the then-branch of `if cap(x) < n`) must not — while an unguarded
// make in the same kind of function still is.
func TestEscapeDiagnostics(t *testing.T) {
	mod, err := LoadModule("testdata/module")
	if err != nil {
		t.Fatal(err)
	}
	ranges := map[string]FuncRange{}
	for _, r := range mod.NoallocRanges() {
		ranges[r.Name] = r
	}
	scratch, guarded, join := ranges["scratch"], ranges["guarded"], ranges["join"]
	ensure, regrow := ranges["ensure"], ranges["regrow"]
	if scratch.Name == "" || guarded.Name == "" || join.Name == "" || ensure.Name == "" || regrow.Name == "" {
		t.Fatalf("fixture functions scratch, guarded, join, ensure, regrow not all in NoallocRanges: %v", ranges)
	}
	inside := scratch.StartLine + 1
	build := strings.Join([]string{
		// Relative path, inside an annotated function: reported.
		fmt.Sprintf("hot/hot.go:%d:9: make([]float64, n) escapes to heap", inside),
		// Same line, non-allocation note: ignored.
		fmt.Sprintf("hot/hot.go:%d:14: leaking param: n", inside),
		// Same line, at an inlined call: the callee's allocation, ignored.
		fmt.Sprintf("hot/hot.go:%d:20: inlining call to grow", inside),
		fmt.Sprintf("hot/hot.go:%d:20: make([]int, 4) escapes to heap", inside),
		// A constant panic message: static data, ignored.
		fmt.Sprintf(`hot/hot.go:%d:9: "hot: empty input" escapes to heap`, guarded.StartLine+2),
		// A string-literal operand of a concatenation: reported.
		fmt.Sprintf(`hot/hot.go:%d:9: "x" + a escapes to heap`, join.StartLine+1),
		// The compiler anchors a make's note at its opening paren.
		// An amortised grow (ensure's guarded `g.a = make(`): ignored.
		fmt.Sprintf("hot/hot.go:%d:13: make([]float64, n) escapes to heap", ensure.StartLine+2),
		// An unguarded make (regrow's `g.b = make(`): reported.
		fmt.Sprintf("hot/hot.go:%d:12: make([]float64, n) escapes to heap", regrow.StartLine+4),
		// Outside any annotated function: ignored.
		"hot/hot.go:10000:1: make([]int, 4) escapes to heap",
		// Unrelated file: ignored.
		"lock/lock.go:7:2: moved to heap: mu",
		"# fixture/hot",
	}, "\n")
	diags := EscapeDiagnostics(mod, []byte(build))
	if len(diags) != 3 {
		t.Fatalf("want exactly 3 escape diagnostics, got %d: %v", len(diags), diags)
	}
	d := diags[0]
	if d.Analyzer != "noalloc" {
		t.Errorf("escape findings must report as noalloc (shared suppressions), got %q", d.Analyzer)
	}
	if !strings.Contains(d.Message, "make([]float64, n) escapes to heap") || !strings.Contains(d.Message, "scratch") {
		t.Errorf("unexpected message %q", d.Message)
	}
	if d.Pos.Line != inside || d.Pos.Column != 9 {
		t.Errorf("diagnostic at %d:%d, want %d:9", d.Pos.Line, d.Pos.Column, inside)
	}
	if d := diags[1]; !strings.Contains(d.Message, "join") || d.Pos.Line != join.StartLine+1 {
		t.Errorf("concatenation note not reported in join: %v", d)
	}
	if d := diags[2]; !strings.Contains(d.Message, "regrow") || d.Pos.Line != regrow.StartLine+4 {
		t.Errorf("unguarded make not reported in regrow: %v", d)
	}
}

// TestNoallocRangesCoverFixture spot-checks the annotated-function
// index the escape mode is built on.
func TestNoallocRangesCoverFixture(t *testing.T) {
	mod, err := LoadModule("testdata/module")
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, r := range mod.NoallocRanges() {
		if r.EndLine < r.StartLine {
			t.Errorf("inverted range for %s: %d..%d", r.Name, r.StartLine, r.EndLine)
		}
		names[r.Name] = true
	}
	for _, want := range []string{"grow", "scratch", "box", "amortized"} {
		if !names[want] {
			t.Errorf("annotated fixture %s missing from NoallocRanges", want)
		}
	}
	if names["unannotated"] {
		t.Error("unannotated function wrongly indexed as noalloc")
	}
}
