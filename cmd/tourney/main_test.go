package main

import (
	"strings"
	"testing"

	"repro/internal/campaign"
	"repro/internal/cli/clitest"
)

func TestFlags(t *testing.T) {
	clitest.CheckFlags(t, "tourney", run, "testdata/flags.golden")
}

func TestUsageErrors(t *testing.T) {
	clitest.RejectsNegative(t, "tourney", run, "horizon", "scale", "tolerance", "workers", "streak-k")
	clitest.UsageErrors(t, "tourney", run,
		[]string{"-no-such-flag"},
		[]string{"-preset", "nope"},
		[]string{"-policies", "bugs"},
		[]string{"-policies", "bugs,nope"},
		[]string{"-loads", "nas:nope"},
		[]string{"stray"},
	)
}

func TestList(t *testing.T) {
	code, stdout, _ := clitest.Run("tourney", run, "-list")
	if code != 0 || !strings.Contains(stdout, campaign.WorkloadFamilies) {
		t.Errorf("-list: exit %d, stdout %q; want every workload family", code, stdout)
	}
}

// TestSmokeGate runs the CI smoke tournament in-process against its
// committed baseline: metrics and policy verdicts must both be clean.
func TestSmokeGate(t *testing.T) {
	code, stdout, stderr := clitest.Run("tourney", run, "-preset", "smoke", "-q",
		"-baseline", "../../baselines/tourney-smoke.json")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	if !strings.Contains(stdout, "policy verdicts: unchanged") {
		t.Errorf("report lacks the verdict line:\n%s", stdout)
	}
}
