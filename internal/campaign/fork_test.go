package campaign

import (
	"bytes"
	"encoding/json"
	"reflect"
	"sync"
	"testing"

	"repro/internal/checker"
	"repro/internal/sim"
)

// TestForkedExplainMatchesSequential extends the fork-equivalence
// contract to explain: on the bisect smoke sweep, the forked runner's
// artifact equals the sequential runner's byte for byte. The collapse
// must also have mattered: some collapsed lattice point has episodes
// whose report differs from its representative's, so its replays were
// rerun under its own features rather than copied. In the smoke cells
// every collapsed report happens to equal its representative's, so the
// sweep adds twonode8 x nas:cg, where gi collapses and reports differ.
func TestForkedExplainMatchesSequential(t *testing.T) {
	smoke := Matrix{
		Topologies: MustTopologies("bulldozer8"),
		Workloads:  MustWorkloads("nas-pin:lu", "make2r", "tpch"),
		Configs:    LatticeConfigs(),
		Seeds:      []int64{1},
		Scale:      0.5,
		Horizon:    100 * sim.Second,
	}
	gi := smoke
	gi.Topologies = MustTopologies("twonode8")
	gi.Workloads = MustWorkloads("nas:cg")
	scenarios := append(smoke.Scenarios(), gi.Scenarios()...)
	opts := RunnerOpts{Workers: 2, BaseSeed: 42, Explain: true,
		Checker: checker.Config{S: 20 * sim.Millisecond, M: 15 * sim.Millisecond}}

	var mu sync.Mutex
	repOf := map[string]string{} // collapsed key -> representative key
	collapseHook = func(rep, member string) {
		mu.Lock()
		repOf[member] = rep
		mu.Unlock()
	}
	t.Cleanup(func() { collapseHook = nil })
	forked, err := RunScenariosForked(scenarios, opts)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := RunScenarios(scenarios, opts)
	if err != nil {
		t.Fatal(err)
	}

	fb, err := forked.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	sb, err := seq.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fb, sb) {
		for i := range seq.Results {
			sj, _ := json.Marshal(seq.Results[i])
			fj, _ := json.Marshal(forked.Results[i])
			if !bytes.Equal(sj, fj) {
				t.Errorf("first diverging result %q", seq.Results[i].Key)
				break
			}
		}
		t.Fatal("forked explain sweep bytes differ from sequential sweep")
	}

	byKey := map[string]*Result{}
	for i := range forked.Results {
		byKey[forked.Results[i].Key] = &forked.Results[i]
	}
	withEpisodes, rerun := 0, 0
	for member, rep := range repOf {
		mr, rr := byKey[member], byKey[rep]
		if mr.Explain == nil || len(mr.Explain.Episodes) == 0 {
			continue
		}
		withEpisodes++
		if !reflect.DeepEqual(mr.Explain, rr.Explain) {
			rerun++
		}
	}
	t.Logf("%d collapsed points, %d with episodes, %d with a report unlike their representative's",
		len(repOf), withEpisodes, rerun)
	if withEpisodes == 0 {
		t.Error("no collapsed lattice point has explain episodes")
	}
	if rerun == 0 {
		t.Error("every collapsed point's explain equals its representative's: replays were not rerun")
	}
}
