package main

import (
	"testing"

	"repro/internal/cli/clitest"
)

func TestFlags(t *testing.T) {
	clitest.CheckFlags(t, "campaignd", run, "testdata/flags.golden")
}

func TestUsageErrors(t *testing.T) {
	clitest.RejectsNegative(t, "campaignd", run,
		"horizon", "scale", "tolerance", "local-workers", "metrics-cadence-ms", "streak-k")
	clitest.UsageErrors(t, "campaignd", run,
		[]string{"-no-such-flag"},
		[]string{"-matrix", "nope"},
		[]string{"-configs", "nope"},
		[]string{"-shard-size", "0"},
		[]string{"-retries", "0"},
		[]string{"stray"},
	)
}
