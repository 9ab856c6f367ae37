package campaign

import (
	"strings"
	"testing"

	"repro/internal/machine"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/workload"
)

// TestConfigRegistryCompat pins the compatibility surface of the
// policy-registry refactor: every config name the campaign ever shipped
// still resolves through ConfigByName, and the curated listing keeps
// its composition.
func TestConfigRegistryCompat(t *testing.T) {
	legacy := []string{
		"bugs", "fix-gi", "fix-gc", "fix-oow", "fix-md",
		"fixed", "powersave", "modsched",
	}
	for mask := 0; mask < 16; mask++ {
		legacy = append(legacy, LatticeConfigName(mask))
	}
	for _, name := range legacy {
		if _, ok := ConfigByName(name); !ok {
			t.Errorf("config %q no longer resolves", name)
		}
	}
	if _, ok := ConfigByName("no-such-config"); ok {
		t.Error("unknown config resolved")
	}
	names := map[string]bool{}
	for _, c := range BuiltinConfigs() {
		names[c.Name] = true
	}
	for _, want := range []string{"bugs", "fixed", "globalq-shared", "globalq-percore"} {
		if !names[want] {
			t.Errorf("BuiltinConfigs missing %q", want)
		}
	}
	if !strings.Contains(ConfigNames(), "globalq-shared") {
		t.Errorf("ConfigNames() missing globalq-shared: %s", ConfigNames())
	}
}

func TestMustConfigsPanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustConfigs accepted an unknown name")
		}
	}()
	MustConfigs("no-such-config")
}

func TestTopologyRegistry(t *testing.T) {
	for _, name := range []string{"bulldozer8", "machine32", "twonode8", "smp8", "grid2x2", "ring4"} {
		tp, ok := TopologyByName(name)
		if !ok || tp.Build == nil {
			t.Errorf("topology %q no longer resolves", name)
		}
	}
	if err := RegisterTopology(TopologySpec{Name: "bulldozer8", Build: BuiltinTopologies()[0].Build}); err == nil {
		t.Error("duplicate topology registration accepted")
	}
	if err := RegisterTopology(TopologySpec{Name: "t-" + t.Name(), Build: nil}); err == nil {
		t.Error("nil-Build topology registration accepted")
	}
	if err := RegisterTopology(TopologySpec{}); err == nil {
		t.Error("empty topology name accepted")
	}
}

func TestWorkloadRegistry(t *testing.T) {
	for _, name := range []string{
		"make2r", "tpch", "nas:lu", "nas:cg", "nas:ep",
		"nas-pin:lu", "nas-hotplug:lu", "nas-hotplug-storm:lu:4", "serve:3000", "globalq",
	} {
		if _, ok := WorkloadByName(name); !ok {
			t.Errorf("workload %q no longer resolves", name)
		}
	}
	// Parameterized families resolve through their prefixes.
	for _, name := range []string{"nas:bt", "nas-pin:cg", "nas-hotplug:lu", "nas-4r:mg", "nas-hotplug-storm:lu:6", "serve:500"} {
		w, ok := WorkloadByName(name)
		if !ok {
			t.Errorf("family workload %q did not resolve", name)
			continue
		}
		if w.Name != name {
			t.Errorf("family workload %q resolved as %q", name, w.Name)
		}
	}
	if err := RegisterWorkload(Workload{Name: "make2r"}); err == nil {
		t.Error("duplicate workload registration accepted")
	}
	if err := RegisterWorkload(Workload{}); err == nil {
		t.Error("empty workload name accepted")
	}
}

// TestWorkloadFamiliesGrammar: the grammar string that usage and error
// messages print names exactly the registered families, in order, and
// each example resolves.
func TestWorkloadFamiliesGrammar(t *testing.T) {
	items := strings.Split(WorkloadFamilies, ", ")
	if len(items) != len(families) {
		t.Fatalf("WorkloadFamilies names %d families, %d are registered", len(items), len(families))
	}
	example := strings.NewReplacer("<app>", "lu", "<cycles>", "3", "<qps>", "500")
	for i, item := range items {
		if !strings.HasPrefix(item, families[i].prefix) {
			t.Errorf("WorkloadFamilies item %d is %q, registered family is %q", i, item, families[i].prefix)
		}
		if _, ok := WorkloadByName(example.Replace(item)); !ok {
			t.Errorf("%q does not resolve", example.Replace(item))
		}
	}
}

// TestNAS4REveryTopology: the lu+4R family adapts its R placement and
// thread count to any machine shape, and the program still completes.
func TestNAS4REveryTopology(t *testing.T) {
	m := Matrix{
		Topologies: BuiltinTopologies(),
		Workloads:  MustWorkloads("nas-4r:lu"),
		Configs:    MustConfigs("bugs"),
		Scale:      0.05,
	}
	c, err := Run(m, RunnerOpts{BaseSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Results) != len(m.Topologies) {
		t.Fatalf("results = %d, want one per topology (%d)", len(c.Results), len(m.Topologies))
	}
	for _, r := range c.Results {
		if !r.Completed || r.MakespanNs <= int64(RWarmup) {
			t.Errorf("%s: completed %v at %v, want completion after the %v warm-up",
				r.Key, r.Completed, sim.Time(r.MakespanNs), RWarmup)
		}
	}
}

// TestNAS4RMatchesHandBuiltRun: on the Bulldozer machine nas-4r:lu is
// the §3.1 lu+4R run — four R processes on nodes 0, 2, 4 and 6, an
// RWarmup head start, then 60 lu threads forked on node 1 — so a
// machine built by hand on the scenario's engine seed finishes at the
// same instant.
func TestNAS4RMatchesHandBuiltRun(t *testing.T) {
	const scale = 0.1
	m := Matrix{
		Topologies: MustTopologies("bulldozer8"),
		Workloads:  MustWorkloads("nas-4r:lu"),
		Configs:    MustConfigs("bugs"),
		Scale:      scale,
	}
	c, err := Run(m, RunnerOpts{BaseSeed: 7})
	if err != nil {
		t.Fatal(err)
	}
	r := c.Results[0]

	topo := topology.Bulldozer8()
	mach := machine.New(topo, sched.DefaultConfig(), r.EngineSeed)
	for _, node := range []topology.NodeID{0, 2, 4, 6} {
		workload.LaunchR(mach, topo.CoresOfNode(node)[0], 100*sim.Second)
	}
	mach.Run(RWarmup)
	lu, _ := workload.NASAppByName("lu")
	p := lu.Launch(mach, workload.NASLaunchOpts{
		Threads:   60,
		SpawnCore: topo.CoresOfNode(1)[0],
		Seed:      r.EngineSeed,
		Scale:     scale,
	})
	end, done := mach.RunUntilDone(200*sim.Second, p)
	if !done || int64(end) != r.MakespanNs {
		t.Errorf("hand-built run ends at %v (done %v), nas-4r:lu at %v", end, done, sim.Time(r.MakespanNs))
	}
}
