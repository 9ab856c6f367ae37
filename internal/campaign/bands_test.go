package campaign

import (
	"testing"
)

func bandResult(topo, load, cfg string, seed int64, makespanNs int64, extra map[string]float64) Result {
	return Result{
		Key:        topo + "/" + load + "/" + cfg + "/s" + string(rune('0'+seed)),
		Topology:   topo,
		Workload:   load,
		Config:     cfg,
		Seed:       seed,
		MakespanNs: makespanNs,
		Completed:  true,
		Extra:      extra,
	}
}

func TestFamilyKey(t *testing.T) {
	if got := FamilyKey("smp8/make2r/bugs/s3"); got != "smp8/make2r/bugs" {
		t.Fatalf("FamilyKey = %q", got)
	}
	if got := FamilyKey("noseed"); got != "noseed" {
		t.Fatalf("FamilyKey without seed = %q", got)
	}
}

func TestSeedBandsDerivation(t *testing.T) {
	// Four seeds of one family: makespan spreads 1.0s..1.2s around a
	// 1.1s mean -> band ~18.2%; a single-seed family yields no band.
	c := &Campaign{Stamp: Stamp{Version: Version}, Results: []Result{
		bandResult("t", "w", "c", 1, 1_000_000_000, nil),
		bandResult("t", "w", "c", 2, 1_200_000_000, nil),
		bandResult("t", "w", "c", 3, 1_100_000_000, nil),
		bandResult("t", "w", "c", 4, 1_100_000_000, nil),
		bandResult("t", "w", "lone", 1, 500_000_000, nil),
	}}
	bands := SeedBands(c)
	fam := bands["t/w/c"]
	if fam == nil {
		t.Fatal("no band for the multi-seed family")
	}
	band := fam["makespan_s"]
	if band < 18 || band > 19 {
		t.Fatalf("makespan band = %.2f%%, want ~18.2%%", band)
	}
	if _, ok := bands["t/w/lone"]; ok {
		t.Fatal("single-seed family must not produce a band")
	}
}

func TestCompareWithBandsWidensTolerance(t *testing.T) {
	base := &Campaign{Stamp: Stamp{Version: Version, ModelVersion: ModelVersion}, Results: []Result{
		bandResult("t", "w", "c", 1, 1_000_000_000, nil),
	}}
	cur := &Campaign{Stamp: Stamp{Version: Version, ModelVersion: ModelVersion}, Results: []Result{
		bandResult("t", "w", "c", 1, 1_100_000_000, nil), // +10%
	}}
	// Global 2% tolerance alone flags the +10% makespan change...
	if cmp := Compare(base, cur, 2); cmp.Clean() {
		t.Fatal("expected a regression at 2% tolerance")
	}
	// ...but a seed band of ~18% for this family absorbs it.
	variance := &Campaign{Stamp: Stamp{Version: Version}, Results: []Result{
		bandResult("t", "w", "c", 1, 1_000_000_000, nil),
		bandResult("t", "w", "c", 2, 1_200_000_000, nil),
	}}
	cmp := CompareWithOpts(base, cur, CompareOpts{TolerancePct: 2, Bands: SeedBands(variance)})
	if !cmp.Clean() {
		t.Fatalf("band-widened comparison still regressed: %+v", cmp.Regressions)
	}
	// The band is per metric: a metric without a band keeps the floor.
	base.Results[0].Extra = map[string]float64{"q18_s": 1}
	cur.Results[0].Extra = map[string]float64{"q18_s": 1.1}
	cmp = CompareWithOpts(base, cur, CompareOpts{TolerancePct: 2, Bands: SeedBands(variance)})
	if cmp.Clean() {
		t.Fatal("unbanded extra metric should still trip the 2% floor")
	}
}
