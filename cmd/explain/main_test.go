package main

import (
	"testing"

	"repro/internal/cli/clitest"
)

func TestFlags(t *testing.T) {
	clitest.CheckFlags(t, "explain", run, "testdata/flags.golden")
}

func TestUsageErrors(t *testing.T) {
	clitest.UsageErrors(t, "explain", run,
		[]string{"-no-such-flag"},
		[]string{},
		[]string{"-in", "a.json", "stray"},
	)
}
