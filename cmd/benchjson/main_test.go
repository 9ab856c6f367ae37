package main

import (
	"testing"

	"repro/internal/cli/clitest"
)

func TestFlags(t *testing.T) {
	clitest.CheckFlags(t, "benchjson", run, "testdata/flags.golden")
}

func TestUsageErrors(t *testing.T) {
	clitest.UsageErrors(t, "benchjson", run, []string{"-no-such-flag"}, []string{"stray"})
}
