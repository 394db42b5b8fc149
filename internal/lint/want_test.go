package lint

import (
	"fmt"
	"strings"
	"testing"
)

// TestFixtureModule drives every analyzer over the fixture module and
// checks its findings against the fixture's // want comments — both
// directions: every want must fire, nothing beyond the wants may.
func TestFixtureModule(t *testing.T) {
	RunWantTest(t, "testdata/module", nil, DefaultAnalyzers()...)
}

// TestFixturePatterns checks the harness respects package patterns: the
// lock fixture alone must produce only lockscope findings.
func TestFixturePatterns(t *testing.T) {
	RunWantTest(t, "testdata/module", []string{"./lock"}, DefaultAnalyzers()...)
}

// fakeReporter records Errorf calls for testing the harness itself.
type fakeReporter struct {
	errors []string
}

func (f *fakeReporter) Errorf(format string, args ...any) {
	f.errors = append(f.errors, fmt.Sprintf(format, args...))
}

// TestWantMismatchReporting checks both failure modes of the harness:
// a diagnostic with no want comment, and a want comment no diagnostic
// matches.
func TestWantMismatchReporting(t *testing.T) {
	fake := &fakeReporter{}
	RunWantTest(fake, "testdata/mismatch", nil, DefaultAnalyzers()...)
	var unexpected, unmatched bool
	for _, e := range fake.errors {
		if strings.Contains(e, "unexpected diagnostic") && strings.Contains(e, "exact floating-point comparison") {
			unexpected = true
		}
		if strings.Contains(e, "no diagnostic matched want") && strings.Contains(e, "this diagnostic never fires") {
			unmatched = true
		}
	}
	if !unexpected {
		t.Errorf("harness did not report the unwanted diagnostic; got %q", fake.errors)
	}
	if !unmatched {
		t.Errorf("harness did not report the unmatched want; got %q", fake.errors)
	}
	if len(fake.errors) != 2 {
		t.Errorf("want exactly 2 harness errors, got %d: %q", len(fake.errors), fake.errors)
	}
}

// TestWantParsing pins the want-comment grammar: multiple expectations
// per line and malformed quoting.
func TestWantParsing(t *testing.T) {
	ws, err := parseWants("f.go", "x // want \"a\" \"b\"\ny\nz // want \"c\"\n")
	if err != nil {
		t.Fatal(err)
	}
	if len(ws) != 3 {
		t.Fatalf("want 3 expectations, got %d", len(ws))
	}
	if ws[0].line != 1 || ws[1].line != 1 || ws[2].line != 3 {
		t.Errorf("wrong lines: %d %d %d", ws[0].line, ws[1].line, ws[2].line)
	}
	if _, err := parseWants("f.go", "x // want unquoted\n"); err == nil {
		t.Error("malformed want comment not rejected")
	}
	if _, err := parseWants("f.go", "x // want \"(unclosed\"\n"); err == nil {
		t.Error("non-compiling want regexp not rejected")
	}
}
