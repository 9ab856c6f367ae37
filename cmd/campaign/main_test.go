package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/campaign"
	"repro/internal/cli/clitest"
)

func TestFlags(t *testing.T) {
	clitest.CheckFlags(t, "campaign", run, "testdata/flags.golden")
}

func TestUsageErrors(t *testing.T) {
	clitest.RejectsNegative(t, "campaign", run,
		"horizon", "scale", "tolerance", "workers", "metrics-cadence-ms", "streak-k")
	clitest.UsageErrors(t, "campaign", run,
		[]string{"-no-such-flag"},
		[]string{"-matrix", "nope"},
		[]string{"-loads", "nope"},
		[]string{"-seeds", "1,x"},
		[]string{"-matrix", "smoke", "-shard", "4/3"},
		[]string{"-merge"},
		[]string{"-merge", "-shard", "1/2", "a.json"},
		[]string{"stray.json"},
	)
}

func TestList(t *testing.T) {
	code, stdout, _ := clitest.Run("campaign", run, "-list")
	if code != 0 || !strings.Contains(stdout, campaign.WorkloadFamilies) {
		t.Errorf("-list: exit %d, stdout %q; want every workload family", code, stdout)
	}
}

// TestSmokeMatchesBaseline runs the CI smoke campaign in-process, in
// full and incrementally against the committed baseline: both artifacts
// must equal the baseline byte for byte, and the -baseline gate must
// pass.
func TestSmokeMatchesBaseline(t *testing.T) {
	baseline := "../../baselines/campaign-smoke.json"
	want, err := os.ReadFile(baseline)
	if err != nil {
		t.Fatal(err)
	}
	for _, extra := range [][]string{nil, {"-incremental", baseline}} {
		out := filepath.Join(t.TempDir(), "smoke.json")
		args := append([]string{"-matrix", "smoke", "-q", "-out", out, "-baseline", baseline}, extra...)
		code, _, stderr := clitest.Run("campaign", run, args...)
		if code != 0 {
			t.Fatalf("%q: exit %d: %s", extra, code, stderr)
		}
		got, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%q: smoke artifact differs from the committed baseline", extra)
		}
	}
	if code, _, _ := clitest.Run("campaign", run, "-matrix", "smoke", "-q", "-incremental", "missing.json"); code != 1 {
		t.Errorf("-incremental with a missing prior exits %d, want 1", code)
	}
}
