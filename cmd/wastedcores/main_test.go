package main

import (
	"io"
	"os"
	"strings"
	"testing"

	"repro/internal/cli"
	"repro/internal/cli/clitest"
	"repro/internal/experiments"
)

// TestFlags compares the flag listing -h prints after its experiment
// list with the golden file. clitest.CheckFlags compares everything
// after the first line, which here includes the experiment list.
func TestFlags(t *testing.T) {
	want, err := os.ReadFile("testdata/flags.golden")
	if err != nil {
		t.Fatal(err)
	}
	code, _, stderr := clitest.Run("wastedcores", run, "-h")
	_, got, found := strings.Cut(stderr, "\nflags:\n")
	if code != 0 || !found || got != string(want) {
		t.Errorf("-h: exit %d, flag listing differs from testdata/flags.golden:\n--- got ---\n%s--- want ---\n%s", code, got, want)
	}
}

func TestUsageErrors(t *testing.T) {
	clitest.RejectsNegative(t, "wastedcores", run, "scale")
	clitest.UsageErrors(t, "wastedcores", run,
		[]string{"-no-such-flag"},
		[]string{},
		[]string{"tables"},
		[]string{"table5", "nope"},
		[]string{"-scale", "NaN", "table5"},
	)
	// An unknown name is rejected before any experiment runs.
	if _, stdout, _ := clitest.Run("wastedcores", run, "table5", "nope"); stdout != "" {
		t.Errorf("table5 ran before the unknown experiment was rejected:\n%s", stdout)
	}
}

// TestAllReportsStepErrors: "all" runs every step even when one fails,
// then exits 1.
func TestAllReportsStepErrors(t *testing.T) {
	code, stdout, stderr := clitest.Run("wastedcores", run, "-scale", "0.05", "-svg", "/dev/null/x", "all")
	if code != cli.ExitRuntime || !strings.Contains(stderr, "fig2:") || !strings.Contains(stdout, "==== scaling ====") {
		t.Errorf("all with an unwritable -svg: exit %d, stderr %q; want exit 1 after every step", code, stderr)
	}
}

// TestPaperTables renders Tables 1, 3 and 4 from one paper campaign.
func TestPaperTables(t *testing.T) {
	code, stdout, stderr := clitest.Run("wastedcores", run, "-scale", "0.05", "table1", "table3", "table4")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	for _, want := range []string{"Table 1:", "Table 3:", "Table 4:", "Missing Scheduling Domains"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("output misses %q:\n%s", want, stdout)
		}
	}
}

// TestTable2RunsOnce: table4's Overload-on-Wakeup row and table2 share
// one Table 2 run per invocation, in either order.
func TestTable2RunsOnce(t *testing.T) {
	x := &runner{out: io.Discard, opts: experiments.Options{Seed: 42, Scale: 0.05}}
	if err := x.run("table4"); err != nil {
		t.Fatal(err)
	}
	if x.table2 == nil {
		t.Fatal("table4 ran Table 2 without keeping its rows")
	}
	first := &x.table2[0]
	if err := x.run("table2"); err != nil {
		t.Fatal(err)
	}
	if &x.table2[0] != first {
		t.Fatal("table2 ran Table 2 again")
	}
}
