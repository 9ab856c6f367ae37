package main

import (
	"testing"

	"repro/internal/cli/clitest"
)

func TestFlags(t *testing.T) {
	clitest.CheckFlags(t, "campaignw", run, "testdata/flags.golden")
}

func TestUsageErrors(t *testing.T) {
	clitest.RejectsNegative(t, "campaignw", run, "workers")
	clitest.UsageErrors(t, "campaignw", run,
		[]string{"-no-such-flag"},
		[]string{"-fault", "banana"},
		[]string{"stray"},
	)
}
