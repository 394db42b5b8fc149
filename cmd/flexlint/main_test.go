package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// flexlintBin is the flexlint binary TestMain builds once for every test.
var flexlintBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "flexlint-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	flexlintBin = filepath.Join(dir, "flexlint")
	if out, err := exec.Command("go", "build", "-o", flexlintBin, ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "building flexlint: %v\n%s", err, out)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// runFlexlint runs the binary inside the analyzer fixture module and
// returns its stdout and exit status.
func runFlexlint(t *testing.T, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(flexlintBin, args...)
	cmd.Dir = filepath.Join("..", "..", "internal", "lint", "testdata", "module")
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case errors.As(err, &exit):
		return stdout.String(), exit.ExitCode()
	case err != nil:
		t.Fatal(err)
	}
	return stdout.String(), 0
}

// TestExitStatus pins the contract CI gates on: exit 1 on a finding,
// 0 on a clean package, and in -suppressions mode 1 on a stale ignore
// — which normal mode does not report, since it silences nothing.
func TestExitStatus(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		code int
		want string // a substring of stdout
	}{
		{"findings", []string{"./internal/detector/"}, 1, "exact floating-point comparison a == b"},
		{"clean package", []string{"./quiet/"}, 0, ""},
		{"stale ignore", []string{"-suppressions", "./quiet/"}, 1, "[floatcmp] fixture: a stale ignore, no float compare left on this line — STALE"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			out, code := runFlexlint(t, tc.args...)
			if code != tc.code {
				t.Fatalf("flexlint %v exited %d, want %d; stdout:\n%s", tc.args, code, tc.code, out)
			}
			if tc.want == "" && out != "" || !strings.Contains(out, tc.want) {
				t.Fatalf("flexlint %v stdout:\n%s\nwant it to contain %q", tc.args, out, tc.want)
			}
		})
	}
}

// TestUnknownAnalyzerIgnoreIsAFinding: a //lint:ignore naming an
// analyzer flexlint does not ship silences nothing, so it is reported
// — under the unsuppressible "lint" name — and fails the run.
func TestUnknownAnalyzerIgnoreIsAFinding(t *testing.T) {
	out, code := runFlexlint(t, "./internal/core/")
	if code != 1 {
		t.Fatalf("flexlint exited %d, want 1; stdout:\n%s", code, out)
	}
	want := `internal/core/suppressed.go:25:1: //lint:ignore names "opcount", which is not an analyzer flexlint ships — it silences nothing; remove it [lint]`
	if !strings.Contains(out, want) {
		t.Fatalf("stdout:\n%s\nwant the line\n%s", out, want)
	}
}
