package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bisect"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	for _, c := range []struct {
		n      int
		p      float64
		want   float64
		report bool
	}{
		{19, 50, 10, false}, // 9 samples above the 10th
		{20, 50, 10, true},  // 10 above
		{99, 90, 90, false}, // 9 above the 90th
		{100, 90, 90, true},
		{999, 99, 990, false},
		{1000, 99, 990, true},
		{0, 50, 0, false},
	} {
		got, ok := percentile(seq(c.n), c.p)
		if got != c.want || ok != c.report {
			t.Errorf("percentile(1..%d, p%g) = %g, %v; want %g, %v", c.n, c.p, got, ok, c.want, c.report)
		}
	}
}

func TestMetricNameGrammar(t *testing.T) {
	for _, bad := range []string{"", "_x", ".x", "a b", "a/b", strings.Repeat("a", 65), "é"} {
		if metricName.MatchString(bad) {
			t.Errorf("metric name %q accepted", bad)
		}
	}
	for _, good := range []string{"wall_s", "dist.shard_rtt_ms.p90", "9lives", strings.Repeat("a", 64)} {
		if !metricName.MatchString(good) {
			t.Errorf("metric name %q rejected", good)
		}
	}
	seen := map[string]bool{}
	for _, m := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
		if !metricName.MatchString(m.name) || !metricUnit.MatchString(m.unit) {
			t.Errorf("metric %q (unit %q) breaks the grammar", m.name, m.unit)
		}
		if m.better != "lower" && m.better != "higher" {
			t.Errorf("metric %q: better = %q", m.name, m.better)
		}
		if seen[m.name] {
			t.Errorf("metric %q declared twice", m.name)
		}
		seen[m.name] = true
	}
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json and the metrics and
// workloads the code reports in step.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
		Why    string `json:"why"`
	}
	var b struct {
		Workloads []entry `json:"workloads"`
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []entry, want []metricSpec) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the code %d", kind, len(got), len(want))
		}
		for i, m := range want {
			if got[i].Name != m.name || got[i].Unit != m.unit || got[i].Better != m.better {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, code %+v", kind, i, got[i], m)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %+v, code %q: %q", i, b.Workloads[i], w.name, w.why)
		}
	}
}

// flipDigit copies src to a temporary file with the first digit after
// the first occurrence of marker changed, keeping the JSON valid.
func flipDigit(t *testing.T, src, marker string) string {
	t.Helper()
	data, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	i := bytes.Index(data, []byte(marker))
	if i < 0 {
		t.Fatalf("%s: no %q", src, marker)
	}
	for i += len(marker); data[i] < '0' || data[i] > '9'; i++ {
	}
	data = append([]byte(nil), data...)
	data[i] = '0' + (data[i]-'0'+1)%10
	dst := filepath.Join(t.TempDir(), filepath.Base(src))
	if err := os.WriteFile(dst, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return dst
}

// loadBisectOracle loads and fingerprints a bisect report the way the
// lattice workload does.
func loadBisectOracle(path string) (fingerprint, error) {
	r, err := bisect.Load(path)
	if err != nil {
		return fingerprint{}, err
	}
	return bisectOracle(path, r)
}

func TestOracleDetectsOneFlippedByte(t *testing.T) {
	t.Run("lattice", func(t *testing.T) {
		path := baselinePath("..", "bisect-default.json")
		want, err := loadBisectOracle(path)
		if err != nil {
			t.Fatal(err)
		}
		if got := mismatches(want, want, 128); got != 0 {
			t.Fatalf("baseline against itself: %d mismatches", got)
		}
		// Inside one scenario's result: that scenario alone.
		got, err := loadBisectOracle(flipDigit(t, path, `"makespan_ns": `))
		if err != nil {
			t.Fatal(err)
		}
		if n := mismatches(got, want, 128); n != 1 {
			t.Errorf("flipped result byte: %d mismatches, want 1", n)
		}
		// In the analysis over the results: every scenario.
		got, err = loadBisectOracle(flipDigit(t, path, `"baseline_violations": `))
		if err != nil {
			t.Fatal(err)
		}
		if n := mismatches(got, want, 128); n != 128 {
			t.Errorf("flipped analysis byte: %d mismatches, want 128", n)
		}
	})
	t.Run("explain", func(t *testing.T) {
		path := baselinePath("..", "explain-smoke.json")
		fp := func(p string) fingerprint {
			data, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := decodeExplain(data)
			if err != nil {
				t.Fatal(err)
			}
			f, err := explainFingerprint(rep, data)
			if err != nil {
				t.Fatal(err)
			}
			return f
		}
		want := fp(path)
		if n := mismatches(fp(flipDigit(t, path, `"wasted_ns": `)), want, 48); n != 1 {
			t.Errorf("flipped explain byte: %d mismatches, want 1", n)
		}
		if n := mismatches(fp(flipDigit(t, path, `"explain_check": {`)), want, 48); n != 48 {
			t.Errorf("flipped cell check byte: %d mismatches, want 48", n)
		}
	})
	t.Run("pinned-sha", func(t *testing.T) {
		a := fingerprint{whole: sha256.Sum256([]byte(`{"x": 1}`))}
		b := fingerprint{whole: sha256.Sum256([]byte(`{"x": 2}`))}
		if n := mismatches(b, a, 120); n != 120 {
			t.Errorf("whole-only oracle: %d mismatches, want 120", n)
		}
	})
}

// fakeWorkload is a three-scenario workload whose passes fail on cue.
type fakeWorkload struct {
	calls   int
	errorOn int // pass number that returns an error (0 = none)
	wrongOn int // pass number whose one scenario mismatches
	want    fingerprint
}

func (f *fakeWorkload) pass(*tracer) (passOut, error) {
	f.calls++
	if f.calls == f.errorOn {
		return passOut{}, errors.New("scenario exploded")
	}
	out := passOut{fp: f.want, scenarios: 3, events: 1}
	if f.calls == f.wrongOn {
		out.fp = fingerprint{whole: f.want.whole, parts: map[string][32]byte{"a": {1}, "b": {}, "c": {}}}
	}
	return out, nil
}

func (f *fakeWorkload) reference() (fingerprint, error)          { return f.want, nil }
func (f *fakeWorkload) probe(*tracer, passOut) (int, int, error) { return 0, 0, nil }
func (f *fakeWorkload) size() int                                { return 3 }
func (f *fakeWorkload) close()                                   {}

func runFake(t *testing.T, f *fakeWorkload) *report {
	t.Helper()
	f.want = fingerprint{parts: map[string][32]byte{"a": {}, "b": {}, "c": {}}}
	w := workload{name: "fake", setup: func(*env) (instance, error) { return f, nil }}
	rep, err := measure(w, &env{procs: 1}, 0, false, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestFailedCountsErroringScenarios(t *testing.T) {
	rep := runFake(t, &fakeWorkload{errorOn: 2})
	// The warm-up pass matched; the first measured pass errored and
	// ended the run with all three of its scenarios failed.
	if rep.Correct || rep.Failed != 3 || rep.Attempted != 6 {
		t.Errorf("erroring pass: correct=%v failed=%d attempted=%d; want false, 3, 6",
			rep.Correct, rep.Failed, rep.Attempted)
	}
	rep = runFake(t, &fakeWorkload{wrongOn: 3})
	if rep.Correct || rep.Failed != 1 || rep.Attempted != 3*(1+minPasses) {
		t.Errorf("mismatching scenario: correct=%v failed=%d attempted=%d; want false, 1, %d",
			rep.Correct, rep.Failed, rep.Attempted, 3*(1+minPasses))
	}
	rep = runFake(t, &fakeWorkload{})
	if !rep.Correct || rep.Failed != 0 {
		t.Errorf("clean run: correct=%v failed=%d", rep.Correct, rep.Failed)
	}
	for _, m := range endToEnd {
		if _, ok := rep.Metrics[m.name]; !ok {
			t.Errorf("end-to-end metric %s missing", m.name)
		}
	}
}

func TestRunRejectsBadUsageAndMissingOracles(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"--workload", "nope"}, &out, &errOut); code != 2 {
		t.Errorf("unknown workload: exit %d, want 2", code)
	}
	// A checkout without the committed baselines has no oracle: the run
	// fails before printing a result.
	out.Reset()
	code := run([]string{"--workload", "lattice", "--root", t.TempDir(), "--seconds", "0.1"}, &out, &errOut)
	if code == 0 || out.Len() != 0 {
		t.Errorf("missing oracle: exit %d, stdout %q; want non-zero and nothing", code, out.String())
	}
}
