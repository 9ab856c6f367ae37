// Command explain renders the causal-observability layer of a campaign
// or bisect artifact produced with -explain: per-episode counterfactual
// replay reports (which single fix erases each confirmed episode, the
// wasted-core and p99-wake deltas, and the first diverging provenance
// record) plus — for bisect artifacts — the per-cell cross-check of
// those attributions against the lattice's minimal fix sets.
//
// The distilled JSON report written by -out contains only the explain
// data (scenario explain blocks and cell explain checks, key-sorted),
// so it diffs cleanly across runs and serves as the committed rolling
// baseline for `make explain-smoke`.
//
// Usage:
//
//	explain -in artifact.json [flags]
//
// Examples:
//
//	bisect -preset smoke -explain -out bisect-explain.json
//	explain -in bisect-explain.json
//	explain -in bisect-explain.json -key bulldozer8/tpch/fx-none/s1
//	explain -in bisect-explain.json -out explain-smoke.json \
//	    -baseline baselines/explain-smoke.json -diff-out explain-smoke-diff.txt
//
// Flags:
//
//	-in file        campaign or bisect artifact with explain data (required)
//	-key key        only render/export this scenario key
//	-out file       write the distilled explain JSON here ("-" for stdout)
//	-baseline file  compare against a previous distilled report; exit 3
//	                on any difference
//	-diff-out file  also write the baseline comparison report to this file
//	-q              suppress the human-readable episode transcript
//
// Exit codes follow the harness convention (README, "Exit codes"):
// 3 means -baseline found a difference.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"

	"repro/internal/bisect"
	"repro/internal/campaign"
	"repro/internal/cli"
	"repro/internal/explain"
)

// report is the distilled explain artifact: scenario explain blocks and
// (for bisect inputs) per-cell attribution cross-checks, both
// key-sorted because the source artifacts are.
type report struct {
	Version int    `json:"version"`
	Source  string `json:"source"` // "campaign" or "bisect"

	Scenarios []scenarioExplain `json:"scenarios"`
	Cells     []cellCheck       `json:"cells,omitempty"`
}

type scenarioExplain struct {
	Key     string                   `json:"key"`
	Explain *explain.ScenarioExplain `json:"explain"`
}

type cellCheck struct {
	Key   string               `json:"key"`
	Check *bisect.ExplainCheck `json:"explain_check"`
}

func main() { cli.Main("explain", run) }

func run(c *cli.Cmd, args []string) error {
	var out cli.Output
	fs := c.FlagSet()
	in := fs.String("in", "", "campaign or bisect artifact with explain data")
	key := fs.String("key", "", "only render/export this scenario key")
	baseline := fs.String("baseline", "", "compare against this distilled explain report")
	diffOut := fs.String("diff-out", "", "write the baseline comparison report to this file")
	fs.StringVar(&out.Path, "out", "", "write the distilled explain JSON to this file (\"-\" for stdout)")
	fs.BoolVar(&out.Quiet, "q", false, "suppress the human-readable episode transcript")
	if err := c.Parse(fs, args); err != nil {
		return err
	}
	if *in == "" {
		return cli.Usagef("-in is required (a campaign or bisect artifact produced with -explain)")
	}
	if err := cli.NoArgs(fs); err != nil {
		return err
	}

	rep, err := load(*in)
	if err != nil {
		return err
	}
	if *key != "" {
		filterKey(rep, *key)
	}
	if len(rep.Scenarios) == 0 {
		if *key != "" {
			return fmt.Errorf("no scenario %q with explain data in %s", *key, *in)
		}
		return fmt.Errorf("%s carries no explain data; re-run the sweep with -explain", *in)
	}
	if err := out.Write(c, rep); err != nil {
		return err
	}
	if *baseline == "" {
		return nil
	}
	base, err := os.ReadFile(*baseline)
	if err != nil {
		return err
	}
	data, err := rep.EncodeJSON()
	if err != nil {
		return err
	}
	diff := compare(base, data, *baseline)
	if *diffOut != "" {
		if err := os.WriteFile(*diffOut, []byte(diff), 0o644); err != nil {
			return err
		}
	}
	if diff != "" {
		fmt.Fprint(c.Stdout, diff)
		return cli.ErrRegression
	}
	c.Logf("matches baseline %s", *baseline)
	return nil
}

// load reads the input artifact — a bisect report (tried first: a
// bisect report also parses as an empty campaign artifact) or a
// campaign artifact — and distills its explain data.
func load(path string) (*report, error) {
	if r, err := bisect.Load(path); err == nil {
		rep := &report{Version: 1, Source: "bisect"}
		fill(rep, r.Campaign)
		for i := range r.Cells {
			c := &r.Cells[i]
			if c.ExplainCheck != nil {
				rep.Cells = append(rep.Cells, cellCheck{Key: c.Key(), Check: c.ExplainCheck})
			}
		}
		return rep, nil
	}
	c, err := campaign.Load(path)
	if err != nil {
		return nil, err
	}
	rep := &report{Version: 1, Source: "campaign"}
	fill(rep, c)
	return rep, nil
}

func fill(rep *report, c *campaign.Campaign) {
	for i := range c.Results {
		r := &c.Results[i]
		if r.Explain != nil {
			rep.Scenarios = append(rep.Scenarios, scenarioExplain{Key: r.Key, Explain: r.Explain})
		}
	}
}

// filterKey narrows the report to one scenario key (and, for bisect
// inputs, the cells whose key prefixes it).
func filterKey(rep *report, key string) {
	var scs []scenarioExplain
	for _, s := range rep.Scenarios {
		if s.Key == key {
			scs = append(scs, s)
		}
	}
	rep.Scenarios = scs
	var cells []cellCheck
	for _, c := range rep.Cells {
		if matchesCell(key, c.Key) {
			cells = append(cells, c)
		}
	}
	rep.Cells = cells
}

// matchesCell reports whether scenario key "topo/load/config/sN"
// belongs to cell key "topo/load/sN" (the config dimension is the
// lattice, collapsed per cell).
func matchesCell(scenarioKey, cellKey string) bool {
	sp := strings.Split(scenarioKey, "/")
	cp := strings.Split(cellKey, "/")
	if len(sp) != 4 || len(cp) != 3 {
		return false
	}
	return sp[0] == cp[0] && sp[1] == cp[1] && sp[3] == cp[2]
}

// EncodeJSON renders the distilled report as indented JSON.
func (rep *report) EncodeJSON() ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// FormatSummary renders the human-readable transcript: per scenario,
// the episode replay reports; per cell, the attribution cross-check.
func (rep *report) FormatSummary() string {
	w := new(strings.Builder)
	for _, s := range rep.Scenarios {
		ex := s.Explain
		fmt.Fprintf(w, "%s: %d episodes (%d checker, %d streak), %d provenance records\n",
			s.Key, len(ex.Episodes), ex.CheckerEpisodes, ex.StreakEpisodes, ex.ProvRecords)
		if ex.SkippedEpisodes > 0 {
			fmt.Fprintf(w, "  %d episodes past the cap were not replayed\n", ex.SkippedEpisodes)
		}
		if ex.ForkUnavailable > 0 {
			fmt.Fprintf(w, "  %d episodes could not fork (observer attached)\n", ex.ForkUnavailable)
		}
		for i, ep := range ex.Episodes {
			explain.WriteEpisode(w, i, ep)
		}
	}
	for _, c := range rep.Cells {
		ck := c.Check
		verdict := "agrees with the lattice minimal sets"
		if !ck.AgreesWithMinimal {
			verdict = "does NOT cover the lattice minimal sets"
		}
		fmt.Fprintf(w, "%s: %d episodes replayed, %d attributed (checker: %s; streak: %s) — %s\n",
			c.Key, ck.Episodes, ck.Attributed,
			orNone(ck.CheckerFixes), orNone(ck.StreakFixes), verdict)
	}
	return w.String()
}

func orNone(fixes []string) string {
	if len(fixes) == 0 {
		return "none"
	}
	return strings.Join(fixes, "+")
}

// compare diffs two distilled reports structurally, returning "" when
// identical. The diff names the keys that changed rather than dumping
// raw JSON, so a regression line is actionable on its own.
func compare(baseBytes, curBytes []byte, basePath string) string {
	if bytes.Equal(baseBytes, curBytes) {
		return ""
	}
	var base, cur report
	if err := json.Unmarshal(baseBytes, &base); err != nil {
		return fmt.Sprintf("explain: baseline %s is not a distilled explain report: %v\n", basePath, err)
	}
	if err := json.Unmarshal(curBytes, &cur); err != nil {
		return fmt.Sprintf("explain: current report unreadable: %v\n", err)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "explain: report differs from baseline %s\n", basePath)
	diffKeyed(&b, "scenario", keyedJSON(base.Scenarios, func(s scenarioExplain) string { return s.Key }),
		keyedJSON(cur.Scenarios, func(s scenarioExplain) string { return s.Key }))
	diffKeyed(&b, "cell", keyedJSON(base.Cells, func(c cellCheck) string { return c.Key }),
		keyedJSON(cur.Cells, func(c cellCheck) string { return c.Key }))
	return b.String()
}

// keyedJSON indexes entries by key as canonical JSON for comparison.
func keyedJSON[T any](entries []T, key func(T) string) map[string]string {
	out := make(map[string]string, len(entries))
	for _, e := range entries {
		data, err := json.Marshal(e)
		if err != nil {
			data = []byte(err.Error())
		}
		out[key(e)] = string(data)
	}
	return out
}

func diffKeyed(b *strings.Builder, kind string, base, cur map[string]string) {
	keys := make([]string, 0, len(base)+len(cur))
	for k := range base {
		keys = append(keys, k)
	}
	for k := range cur {
		if _, ok := base[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		bv, inBase := base[k]
		cv, inCur := cur[k]
		switch {
		case !inCur:
			fmt.Fprintf(b, "  %s %s: missing from this run\n", kind, k)
		case !inBase:
			fmt.Fprintf(b, "  %s %s: new in this run\n", kind, k)
		case bv != cv:
			fmt.Fprintf(b, "  %s %s: explain data changed\n", kind, k)
		}
	}
}
