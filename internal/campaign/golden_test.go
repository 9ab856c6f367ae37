package campaign

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/machine"
	"repro/internal/trace"
)

// Golden bytes for outputs no smoke baseline covers: a campaign artifact
// with Trace and Metrics on, its Perfetto export with Explain on, and the
// binary (v2) and JSON Lines dumps of a full-run trace recorder. Each is
// compared by sha256 against testdata/golden.sha256; outputs small
// enough to read are also committed whole so a mismatch can be diffed.
// The goldens pin the decision stream end to end: what the scheduler
// hands the recorder, the provenance ring and the balance metrics.

// goldenMatrix is two small scenarios on the paper's machine under the
// studied (buggy) kernel: the pinned NAS run, where the checker confirms
// a violation (so the campaign's windowed recorder captures events) and
// balancing rejects steals, and the database run, whose wakeups fill the
// provenance stream with placements.
func goldenMatrix() Matrix {
	return Matrix{
		Topologies: MustTopologies("bulldozer8"),
		Workloads:  MustWorkloads("nas-pin:lu", "tpch"),
		Configs:    MustConfigs("bugs"),
		Seeds:      []int64{1},
		Scale:      0.1,
	}
}

// goldenOutputs produces every golden output, keyed by file name.
func goldenOutputs(t *testing.T) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	opts := RunnerOpts{Workers: 1, BaseSeed: 42, Trace: true, Metrics: true}
	c, err := Run(goldenMatrix(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if out["campaign.json"], err = c.EncodeJSON(); err != nil {
		t.Fatal(err)
	}

	opts.Explain = true
	for _, sc := range goldenMatrix().Scenarios() {
		name := strings.ReplaceAll(sc.Workload.Name, ":", "-")
		var pf bytes.Buffer
		if _, err := ExportPerfetto(sc, opts, &pf); err != nil {
			t.Fatal(err)
		}
		out[name+".perfetto.json"] = pf.Bytes()

		// A fixed recorder run: recording from t=0 with a snapshot of
		// the initial runqueues, the way figure capture and the export
		// side run use it.
		seed := DeriveSeed(opts.BaseSeed, sc.CellKey(), sc.Seed)
		topo := sc.Topology.Build()
		m := machine.New(topo, sc.Config.Config, seed)
		rec := trace.NewRecorder(1 << 20)
		m.Sched.Attach(rec)
		rec.Start()
		m.Sched.EmitSnapshot()
		sc.Workload.Run(&RunContext{M: m, Topo: topo, Seed: seed, Scale: sc.Scale, Horizon: sc.Horizon})
		var bin, jsonl bytes.Buffer
		if _, err := rec.WriteTo(&bin); err != nil {
			t.Fatal(err)
		}
		if err := rec.WriteJSON(&jsonl); err != nil {
			t.Fatal(err)
		}
		out[name+".trace.bin"] = bin.Bytes()
		out[name+".trace.jsonl"] = jsonl.Bytes()
	}
	return out
}

// goldenWhole lists the outputs committed whole (the rest are over
// 100 KB and pinned by hash only).
var goldenWhole = map[string]bool{"campaign.json": true}

func TestGoldenOutputs(t *testing.T) {
	if testing.Short() {
		t.Skip("golden run in -short mode")
	}
	sums, err := os.ReadFile(filepath.Join("testdata", "golden.sha256"))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, line := range bytes.Split(bytes.TrimSpace(sums), []byte("\n")) {
		f := bytes.Fields(line)
		if len(f) != 2 {
			t.Fatalf("malformed golden.sha256 line %q", line)
		}
		want[string(f[1])] = string(f[0])
	}
	got := goldenOutputs(t)
	if len(want) != len(got) {
		t.Fatalf("golden.sha256 lists %d outputs, the test produces %d", len(want), len(got))
	}
	for name, data := range got {
		sum := sha256.Sum256(data)
		if h := hex.EncodeToString(sum[:]); h != want[name] {
			t.Errorf("%s: sha256 %s, golden %s (%d bytes)", name, h, want[name], len(data))
		}
		if goldenWhole[name] {
			ref, err := os.ReadFile(filepath.Join("testdata", "golden-"+name))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(ref, data) {
				t.Errorf("%s differs from testdata/golden-%s", name, name)
			}
		}
	}
}
