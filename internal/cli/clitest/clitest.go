// Package clitest drives commands built on cli.Main in-process, so
// their flag sets and exit codes are testable without a subprocess.
package clitest

import (
	"os"
	"strings"
	"testing"

	"repro/internal/cli"
)

// RunFunc is a command's entry point, as passed to cli.Main.
type RunFunc func(c *cli.Cmd, args []string) error

// Run runs a command on args and returns the exit code cli.Main would
// exit with, plus everything it wrote to stdout and stderr.
func Run(name string, run RunFunc, args ...string) (code int, stdout, stderr string) {
	var out, errOut strings.Builder
	c := &cli.Cmd{Name: name, Stdout: &out, Stderr: &errOut}
	code = c.Exit(run(c, args))
	return code, out.String(), errOut.String()
}

// CheckFlags compares the command's -h flag listing (names, types,
// defaults and usage lines) with a golden file, so a flag that is
// added, dropped, renamed, re-defaulted or re-worded fails the test.
// The golden file omits the "Usage of ..." header line.
func CheckFlags(t *testing.T, name string, run RunFunc, golden string) {
	t.Helper()
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	code, _, stderr := Run(name, run, "-h")
	if code != 0 {
		t.Fatalf("%s -h exited %d", name, code)
	}
	_, got, _ := strings.Cut(stderr, "\n")
	if got != string(want) {
		t.Errorf("%s flag set differs from %s:\n--- got ---\n%s--- want ---\n%s", name, golden, got, want)
	}
}

// RejectsNegative asserts that each named numeric flag set to -1 is a
// usage error (exit 2) naming the flag.
func RejectsNegative(t *testing.T, name string, run RunFunc, flags ...string) {
	t.Helper()
	for _, f := range flags {
		code, _, stderr := Run(name, run, "-"+f, "-1")
		if code != cli.ExitUsage || !strings.Contains(stderr, "-"+f+" must be >= 0") {
			t.Errorf("%s -%s -1: exit %d, stderr %q; want exit 2 naming the flag", name, f, code, stderr)
		}
	}
}

// UsageErrors asserts that each argument list is a usage error (exit 2).
func UsageErrors(t *testing.T, name string, run RunFunc, cases ...[]string) {
	t.Helper()
	for _, args := range cases {
		if code, _, stderr := Run(name, run, args...); code != cli.ExitUsage {
			t.Errorf("%s %q: exit %d (stderr %q), want 2", name, args, code, stderr)
		}
	}
}
