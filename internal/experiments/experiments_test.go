package experiments

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/campaign"
	"repro/internal/workload"
)

// Scale-reduced options keep the integration tests fast while preserving
// every qualitative property asserted below.
func testOpts() Options { return Options{Seed: 42, Scale: 0.5} }

// paperRuns memoizes Paper per options: the table tests at testOpts
// render from one sweep.
var (
	paperMu   sync.Mutex
	paperRuns = map[Options]*campaign.Campaign{}
)

func paper(t *testing.T, opts Options) *campaign.Campaign {
	t.Helper()
	paperMu.Lock()
	defer paperMu.Unlock()
	if c, ok := paperRuns[opts]; ok {
		return c
	}
	c, err := Paper(opts)
	if err != nil {
		t.Fatal(err)
	}
	paperRuns[opts] = c
	return c
}

func TestTable1Shape(t *testing.T) {
	tab := Table1(paper(t, testOpts()))
	rows := tab.Rows
	if len(rows) != 9 {
		t.Fatalf("rows = %d", len(rows))
	}
	var lu, max float64
	for _, r := range rows {
		if !r.Complete {
			t.Fatalf("%s timed out", r.App)
		}
		// Every application must speed up with the fix.
		if r.Speedup < 1.05 {
			t.Errorf("%s speedup = %.2f, want > 1.05", r.App, r.Speedup)
		}
		if r.App == "lu" {
			lu = r.Speedup
		}
		if r.Speedup > max {
			max = r.Speedup
		}
	}
	// lu is the catastrophic case (paper: 27x).
	if lu != max {
		t.Errorf("lu (%.1fx) should be the most affected app", lu)
	}
	if lu < 5 {
		t.Errorf("lu speedup = %.1f, want >> 1 (paper: 27x)", lu)
	}
	out := tab.String()
	if !strings.Contains(out, "lu") || !strings.Contains(out, "Speedup") {
		t.Error("FormatTable1 malformed")
	}
}

func TestTable3Shape(t *testing.T) {
	tab := Table3(paper(t, testOpts()))
	rows := tab.Rows
	if len(rows) != 9 {
		t.Fatalf("rows = %d", len(rows))
	}
	var lu, max float64
	for _, r := range rows {
		if !r.Complete {
			t.Fatalf("%s timed out", r.App)
		}
		// One node instead of eight: everything slows at least ~3x
		// (paper: minimum 4x).
		if r.Speedup < 2.5 {
			t.Errorf("%s speedup = %.2f, want > 2.5", r.App, r.Speedup)
		}
		if r.App == "lu" {
			lu = r.Speedup
		}
		if r.Speedup > max {
			max = r.Speedup
		}
	}
	if lu != max {
		t.Errorf("lu (%.1fx) should be the most affected app", lu)
	}
	if lu < 10 {
		t.Errorf("lu speedup = %.1f, want superlinear (paper: 138x)", lu)
	}
	if !strings.Contains(tab.String(), "Missing Scheduling Domains") {
		t.Error("FormatTable3 malformed")
	}
}

func TestTable2Shape(t *testing.T) {
	rows := Table2(Options{Seed: 42, Scale: 1})
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	byName := map[string]Table2Row{}
	for _, r := range rows {
		if !r.Complete {
			t.Fatalf("%s timed out", r.Config)
		}
		byName[r.Config] = r
	}
	oow := byName["Overload-on-Wakeup"]
	gi := byName["Group Imbalance"]
	both := byName["Both"]
	// The OoW fix dominates (paper: -22.2% vs -13.1% on Q18).
	if oow.Q18Pct >= -5 {
		t.Errorf("OoW Q18 improvement = %.1f%%, want < -5%%", oow.Q18Pct)
	}
	if oow.FullPct >= -3 {
		t.Errorf("OoW full improvement = %.1f%%, want < -3%%", oow.FullPct)
	}
	if oow.Q18Pct > gi.Q18Pct {
		t.Errorf("OoW (%.1f%%) should improve Q18 more than GI (%.1f%%)", oow.Q18Pct, gi.Q18Pct)
	}
	// Q18 is more sensitive than the average query.
	if oow.Q18Pct > oow.FullPct {
		t.Errorf("Q18 (%.1f%%) should improve more than the full run (%.1f%%)", oow.Q18Pct, oow.FullPct)
	}
	// Both fixes should not be worse than OoW alone (within noise).
	if both.Q18Pct > oow.Q18Pct+5 {
		t.Errorf("Both (%.1f%%) much worse than OoW alone (%.1f%%)", both.Q18Pct, oow.Q18Pct)
	}
	if !strings.Contains(FormatTable2(rows), "TPC-H") {
		t.Error("FormatTable2 malformed")
	}
}

func TestGroupImbalanceLU(t *testing.T) {
	rows := LuR(paper(t, testOpts())).Rows
	if len(rows) != 1 {
		t.Fatalf("rows = %d, want lu alone", len(rows))
	}
	res := rows[0]
	if !res.Complete {
		t.Fatal("timed out")
	}
	// Paper: 13x. Require a large superlinear effect.
	if res.Speedup < 4 {
		t.Fatalf("lu+4R speedup = %.1f, want >> 1 (paper: 13x)", res.Speedup)
	}
}

func TestTable4And5(t *testing.T) {
	t2 := Table2(Options{Seed: 42, Scale: 1})
	rows := Table4(paper(t, testOpts()), t2)
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	out := FormatTable4(rows)
	for _, want := range []string{"Group Imbalance", "Scheduling Group Construction",
		"Overload-on-Wakeup", "Missing Scheduling Domains", "2.6.38+", "x"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 4 missing %q", want)
		}
	}
	t5 := Table5()
	if !strings.Contains(t5, "64 cores") || !strings.Contains(t5, "8 NUMA nodes") {
		t.Errorf("Table 5 malformed:\n%s", t5)
	}
}

func TestFig1(t *testing.T) {
	out := Fig1()
	for _, want := range []string{"SMT", "NODE", "NUMA-1", "NUMA-2"} {
		if !strings.Contains(out, want) {
			t.Errorf("Fig1 missing %q", want)
		}
	}
}

func TestFig4(t *testing.T) {
	out := Fig4()
	for _, want := range []string{"node 0: [1 2 4 6]", "node 3: [1 2 4 5 7]", "HyperTransport"} {
		if !strings.Contains(out, want) {
			t.Errorf("Fig4 missing %q:\n%s", want, out)
		}
	}
}

func TestFig2(t *testing.T) {
	res := Fig2(Options{Seed: 42, Scale: 0.5})
	// The paper's symptom: two underloaded nodes with the bug.
	if res.IdleNodesObserved < 1 || res.IdleNodesObserved > 3 {
		t.Errorf("underloaded nodes = %d, want ~2", res.IdleNodesObserved)
	}
	// make improves with the fix (paper: -13%).
	if res.MakeFix >= res.MakeBug {
		t.Errorf("make did not improve: bug=%v fix=%v", res.MakeBug, res.MakeFix)
	}
	if res.BugSize.NumRows() != 64 || res.BugLoad.NumRows() != 64 || res.FixSize.NumRows() != 64 {
		t.Error("heatmaps missing rows")
	}
	// The buggy load heatmap shows the R cores glowing: max load near
	// a full NICE0 weight.
	if res.BugLoad.Max() < 500 {
		t.Errorf("load heatmap max = %.0f, want ~1024 (the R threads)", res.BugLoad.Max())
	}
}

func TestFig3(t *testing.T) {
	res := Fig3(Options{Seed: 42, Scale: 1})
	if res.WakeupsOnBusy == 0 {
		t.Error("no overload-on-wakeup events observed")
	}
	if res.WakeupsOnIdle == 0 {
		t.Error("no idle wakeups at all (trace broken?)")
	}
	if res.WastedCoreTime == 0 {
		t.Error("no wasted core time recorded")
	}
	if res.Heat.NumRows() != 64 {
		t.Error("heatmap missing rows")
	}
}

func TestFig5(t *testing.T) {
	res := Fig5(testOpts())
	// The bug: core 0 considers only its own node (8 cores).
	if res.CoverageBug != 8 {
		t.Errorf("bug coverage = %d cores, want 8 (node 0 only)", res.CoverageBug)
	}
	// The fix: cross-node levels return.
	if res.CoverageFix <= res.CoverageBug {
		t.Errorf("fix coverage = %d, want > %d", res.CoverageFix, res.CoverageBug)
	}
	if !strings.Contains(res.ChartBug, "cpu63") {
		t.Error("chart missing rows")
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Seed == 0 || o.Scale != 1 || o.Horizon == 0 {
		t.Fatalf("defaults: %+v", o)
	}
}

func TestNASSuiteUsedByTables(t *testing.T) {
	// Table rows carry the suite's app names in order.
	rows := Table1(paper(t, Options{Seed: 1, Scale: 0.05})).Rows
	suite := workload.NASSuite()
	if len(rows) != len(suite) {
		t.Fatalf("rows = %d, want one per suite app (%d)", len(rows), len(suite))
	}
	for i, r := range rows {
		if r.App != suite[i].Name {
			t.Fatalf("row %d = %s, want %s", i, r.App, suite[i].Name)
		}
	}
}

// TestAttribution pins the paper's Tables 1–4 attributions as computed
// by the fix-set bisection lattice: each pathology scenario's minimal
// fix set must be exactly the fix the paper prescribes (or additionally
// name the machine-checked co-attribution / documented interaction).
func TestAttribution(t *testing.T) {
	rows, report, err := Attribution(Options{Seed: 42, Scale: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(rows))
	}
	byTable := map[string]AttributionRow{}
	for _, r := range rows {
		if !r.Match {
			t.Errorf("%s (%s): computed %v does not contain the paper's fix {%s}",
				r.Table, r.Scenario, r.Computed, r.PaperFix)
		}
		byTable[r.Table] = r
	}

	// Table 1 pinning: exactly {gc}, plus the documented min-load
	// interaction (adding fix-gi re-introduces violations).
	t1 := byTable["Table 1"]
	if len(t1.Computed) != 1 || t1.Computed[0] != "gc" {
		t.Errorf("Table 1 minimal fix sets = %v, want exactly [gc]", t1.Computed)
	}
	if !strings.Contains(t1.Note, "re-introduces") {
		t.Errorf("Table 1 note misses the min-load interaction: %q", t1.Note)
	}

	// Table 2 TPC-H: the overload-on-wakeup episodes are too short for
	// invariant confirmation, so the verdict is makespan-based — and
	// exactly {oow}.
	t2 := byTable["Table 2"]
	if t2.Basis != "makespan" {
		t.Errorf("Table 2 basis = %q, want makespan", t2.Basis)
	}
	if len(t2.Computed) != 1 || t2.Computed[0] != "oow" {
		t.Errorf("Table 2 minimal fix sets = %v, want exactly [oow]", t2.Computed)
	}

	// Table 3 hotplug: exactly {md}.
	t3 := byTable["Table 3"]
	if len(t3.Computed) != 1 || t3.Computed[0] != "md" {
		t.Errorf("Table 3 minimal fix sets = %v, want exactly [md]", t3.Computed)
	}

	// §3.1 make+R: {gi} must be a minimal set; {oow} co-attributes
	// because preventing wakeup stacking also removes the episode
	// witness — the lattice reports both.
	t4 := byTable["Table 4 (§3.1)"]
	found := false
	for _, s := range t4.Computed {
		if s == "gi" {
			found = true
		}
	}
	if !found {
		t.Errorf("§3.1 minimal fix sets = %v, want gi included", t4.Computed)
	}

	// The report's cells carry checker-classified baseline episodes
	// matching each bug's signature.
	for cell, class := range map[string]string{
		"nas-pin:lu":     "group-construction",
		"nas-hotplug:lu": "missing-domains",
		"make2r":         "group-imbalance",
	} {
		c := report.Cell("bulldozer8", cell, 1)
		if c == nil || c.BaselineClasses[class] == 0 {
			t.Errorf("%s baseline misses %s episodes", cell, class)
		}
	}

	out := FormatAttribution(rows)
	for _, want := range []string{"Table 1", "{gc}", "{oow}", "{md}", "yes"} {
		if !strings.Contains(out, want) {
			t.Errorf("FormatAttribution missing %q:\n%s", want, out)
		}
	}
}

func TestFig3Episodes(t *testing.T) {
	res := Fig3(Options{Seed: 42, Scale: 1})
	// The buggy run must show repeated violation episodes (Figure 3's
	// gaps) covering a visible share of the window.
	if res.Episodes.Count == 0 {
		t.Fatal("no idle-while-overloaded episodes recorded")
	}
	if res.Episodes.WindowShare <= 0 {
		t.Fatal("episode share not computed")
	}
}
