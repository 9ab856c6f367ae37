package cli

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/campaign"
)

func testCmd() (*Cmd, *strings.Builder, *strings.Builder) {
	var out, errOut strings.Builder
	return &Cmd{Name: "tool", Stdout: &out, Stderr: &errOut}, &out, &errOut
}

func TestExitCodes(t *testing.T) {
	for _, tc := range []struct {
		err    error
		code   int
		stderr string
	}{
		{nil, 0, ""},
		{flag.ErrHelp, 0, ""},
		{ErrRegression, ExitRegression, ""},
		{fmt.Errorf("gate: %w", ErrRegression), ExitRegression, ""},
		{Usagef("bad %s", "spec"), ExitUsage, "tool: bad spec\n"},
		{usageError{}, ExitUsage, ""}, // already reported by the flag package
		{errors.New("tool: disk full"), ExitRuntime, "tool: disk full\n"},
		{errors.New("shard: overlap"), ExitRuntime, "tool: shard: overlap\n"},
	} {
		c, _, stderr := testCmd()
		if code := c.Exit(tc.err); code != tc.code || stderr.String() != tc.stderr {
			t.Errorf("Exit(%v) = %d, stderr %q; want %d, %q", tc.err, code, stderr, tc.code, tc.stderr)
		}
	}
}

func TestParseRejectsNegatives(t *testing.T) {
	newSet := func(c *Cmd) *flag.FlagSet {
		var r Run
		fs := c.FlagSet()
		r.Register(fs, 200)
		r.RegisterWorkers(fs)
		fs.String("urls", "", "a string flag is never range-checked")
		return fs
	}
	for _, args := range [][]string{
		{},
		{"-horizon", "0", "-scale", "0", "-workers", "0"},
		{"-scale", "0.5", "-urls", "-1"},
	} {
		c, _, _ := testCmd()
		if err := c.Parse(newSet(c), args); err != nil {
			t.Errorf("Parse(%q) = %v, want nil", args, err)
		}
	}
	for _, args := range [][]string{
		{"-horizon", "-1"},
		{"-scale", "-0.5"},
		{"-scale", "NaN"},
		{"-workers", "-2"},
		{"-streak-k", "-1"},
		{"-bogus"},
	} {
		c, _, _ := testCmd()
		if code := c.Exit(c.Parse(newSet(c), args)); code != ExitUsage {
			t.Errorf("Parse(%q) exits %d, want 2", args, code)
		}
	}
	c, _, _ := testCmd()
	if err := c.Parse(newSet(c), []string{"-h"}); !errors.Is(err, flag.ErrHelp) {
		t.Errorf("Parse(-h) = %v, want flag.ErrHelp", err)
	}
}

// parseDims registers every dimension flag, parses args and applies
// them over a one-element preset.
func parseDims(t *testing.T, policies bool, args ...string) (campaign.Matrix, error) {
	t.Helper()
	var d Dims
	c, _, _ := testCmd()
	fs := c.FlagSet()
	d.Register(fs)
	if policies {
		d.RegisterPolicies(fs)
	} else {
		d.RegisterConfigs(fs)
	}
	if err := c.Parse(fs, args); err != nil {
		t.Fatal(err)
	}
	m := campaign.SmokeMatrix()
	err := d.Apply(&m.Topologies, &m.Workloads, &m.Configs, &m.Seeds)
	return m, err
}

func TestDimsApply(t *testing.T) {
	m, err := parseDims(t, false, "-topos", " smp8,,twonode8 ", "-loads", "tpch,nas-hotplug-storm:lu:3",
		"-configs", "fixed", "-seeds", "3,,-4")
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Topologies) != 2 || m.Topologies[1].Name != "twonode8" {
		t.Errorf("topologies = %v, want smp8, twonode8 (empty items dropped)", m.Topologies)
	}
	if len(m.Workloads) != 2 || m.Workloads[1].Name != "nas-hotplug-storm:lu:3" {
		t.Errorf("workloads = %d, want tpch and the storm family member", len(m.Workloads))
	}
	if len(m.Configs) != 1 || m.Configs[0].Name != "fixed" {
		t.Errorf("configs = %v, want fixed", m.Configs)
	}
	if fmt.Sprint(m.Seeds) != "[3 -4]" {
		t.Errorf("seeds = %v, want [3 -4]", m.Seeds)
	}

	// Untouched dimensions keep the preset.
	m, err = parseDims(t, false)
	if err != nil || m.Size() != campaign.SmokeMatrix().Size() {
		t.Errorf("no overrides: size %d, err %v; want the preset", m.Size(), err)
	}
}

func TestDimsErrors(t *testing.T) {
	for _, tc := range []struct {
		policies bool
		args     []string
		want     string
	}{
		{false, []string{"-topos", "smp8,nope"}, `unknown topology "nope"`},
		{false, []string{"-loads", "nas:nope"}, campaign.WorkloadFamilies},
		{false, []string{"-configs", "nope"}, `unknown config "nope"`},
		{false, []string{"-seeds", "1,x"}, `bad seed "x"`},
		{true, []string{"-policies", "nope,bugs"}, `unknown policy "nope"`},
		{true, []string{"-policies", "bugs"}, "at least two policies, got 1"},
		{true, []string{"-policies", "bugs,,"}, "at least two policies, got 1"},
	} {
		_, err := parseDims(t, tc.policies, tc.args...)
		c, _, stderr := testCmd()
		if code := c.Exit(err); code != ExitUsage || !strings.Contains(stderr.String(), tc.want) {
			t.Errorf("%q: exit %d, %q; want a usage error containing %q", tc.args, code, stderr, tc.want)
		}
	}
}

func TestOutputWrite(t *testing.T) {
	art := &campaign.Campaign{Stamp: campaign.Stamp{Version: campaign.Version}}
	data, err := art.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}

	// "-out -": the artifact alone on stdout, the summary on stderr.
	c, stdout, stderr := testCmd()
	if err := (Output{Path: "-"}).Write(c, art); err != nil {
		t.Fatal(err)
	}
	if stdout.String() != string(data) || stderr.String() != art.FormatSummary() {
		t.Errorf("-out -: stdout %q, stderr %q", stdout, stderr)
	}

	// A file: summary on stdout (suppressed by -q), the write noted on stderr.
	path := filepath.Join(t.TempDir(), "a.json")
	c, stdout, stderr = testCmd()
	if err := (Output{Path: path, Quiet: true}).Write(c, art); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil || string(got) != string(data) {
		t.Errorf("file holds %q (%v), want the artifact", got, err)
	}
	if stdout.Len() != 0 || !strings.HasPrefix(stderr.String(), "tool: wrote "+path) {
		t.Errorf("-q -out file: stdout %q, stderr %q", stdout, stderr)
	}
}

func TestGateCheck(t *testing.T) {
	art := &campaign.Campaign{Stamp: campaign.Stamp{Version: campaign.Version}}
	diff := filepath.Join(t.TempDir(), "diff.txt")
	g := Gate{Tolerance: 2, DiffOut: diff}
	c, stdout, _ := testCmd()
	if err := g.Check(c, art, art, "extra line\n", false); err != nil {
		t.Errorf("clean gate = %v, want nil", err)
	}
	if got, _ := os.ReadFile(diff); string(got) != stdout.String() || !strings.HasSuffix(stdout.String(), "extra line\n") {
		t.Errorf("-diff-out %q differs from the printed report %q", got, stdout)
	}
	c, _, _ = testCmd()
	if err := g.Check(c, art, art, "", true); !errors.Is(err, ErrRegression) {
		t.Errorf("gate with a command-level regression = %v, want ErrRegression", err)
	}
}
