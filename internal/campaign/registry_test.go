package campaign

import (
	"strings"
	"testing"
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
	for _, name := range []string{"nas:bt", "nas-pin:cg", "nas-hotplug:lu", "nas-hotplug-storm:lu:6", "serve:500"} {
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
