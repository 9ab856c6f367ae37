package main

import (
	"path/filepath"
	"testing"

	"repro/internal/cli/clitest"
)

func TestFlags(t *testing.T) {
	clitest.CheckFlags(t, "bisect", run, "testdata/flags.golden")
}

func TestUsageErrors(t *testing.T) {
	clitest.RejectsNegative(t, "bisect", run, "horizon", "scale", "tolerance", "workers", "streak-k")
	clitest.UsageErrors(t, "bisect", run,
		[]string{"-no-such-flag"},
		[]string{"-preset", "nope"},
		[]string{"-topos", "nope"},
		[]string{"-preset", "smoke", "-shard", "banana"},
		[]string{"-preset", "smoke", "-shard", "1/2", "-merge"},
		[]string{"-merge"},
		[]string{"-incremental", "prior.json", "stray.json"},
	)
}

// TestSmokeGate runs the CI smoke lattice in-process against its
// committed baseline; the -baseline gate must pass.
func TestSmokeGate(t *testing.T) {
	out := filepath.Join(t.TempDir(), "bisect.json")
	code, _, stderr := clitest.Run("bisect", run, "-preset", "smoke", "-q", "-out", out,
		"-baseline", "../../baselines/bisect-smoke.json")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
}
