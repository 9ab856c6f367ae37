package obs

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/sim"
	"repro/internal/trace"
)

// pfCheck is the decoded shape used by the schema test.
type pfCheck struct {
	TraceEvents []struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Cat  string         `json:"cat"`
		ID   string         `json:"id"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	} `json:"traceEvents"`
	DisplayTimeUnit string `json:"displayTimeUnit"`
}

func syntheticEvents() []trace.Event {
	ms := func(n int64) sim.Time { return sim.Time(n) * sim.Millisecond }
	return []trace.Event{
		{At: ms(1), Kind: trace.KindRQSize, CPU: 0, Arg: 1},
		{At: ms(1), Kind: trace.KindRQLoad, CPU: 0, Arg: 1024},
		{At: ms(2), Kind: trace.KindRQSize, CPU: 1, Arg: 2},
		{At: ms(3), Kind: trace.KindMigration, CPU: 0, Arg: 7, Aux: 1},
		{At: ms(4), Kind: trace.KindBalance, Op: trace.OpPeriodicBalance,
			Code: uint8(trace.VerdictBalanced), CPU: 1, Arg: 100, Aux: 200},
		{At: ms(5), Kind: trace.KindRQSize, CPU: 0, Arg: 0},
		{At: ms(6), Kind: trace.KindFork, CPU: 1, Arg: 9},
		{At: ms(8), Kind: trace.KindRQSize, CPU: 1, Arg: 0},
	}
}

// TestPerfettoSchema validates the export against the trace-event
// format: required keys, known phase types, non-negative durations, and
// monotonically non-decreasing timestamps per (pid, tid) track.
func TestPerfettoSchema(t *testing.T) {
	eng := sim.New(1)
	reg := NewRegistry(eng, Options{Cadence: sim.Millisecond})
	reg.Sampled("sched/runq", 0, KindGauge, func() int64 { return int64(eng.Now() / sim.Millisecond) })
	reg.Start()
	eng.RunUntil(8 * sim.Millisecond)

	var buf bytes.Buffer
	if err := WritePerfetto(&buf, syntheticEvents(), reg.Series(), PerfettoOpts{}); err != nil {
		t.Fatal(err)
	}
	var f pfCheck
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if f.DisplayTimeUnit != "ns" {
		t.Fatalf("displayTimeUnit = %q", f.DisplayTimeUnit)
	}
	if len(f.TraceEvents) == 0 {
		t.Fatal("no trace events")
	}
	var sawSlice, sawDepth, sawSeries, sawInstant bool
	lastTs := map[[2]int]float64{}
	for i, ev := range f.TraceEvents {
		if ev.Name == "" {
			t.Fatalf("event %d has no name", i)
		}
		switch ev.Ph {
		case "X":
			sawSlice = true
			if ev.Dur < 0 {
				t.Fatalf("event %d: negative dur %v", i, ev.Dur)
			}
		case "C":
			if _, ok := ev.Args["threads"]; ok && ev.Name[:10] == "runq depth" {
				sawDepth = true
			}
			if _, ok := ev.Args["value"]; ok {
				sawSeries = true
			}
		case "i":
			sawInstant = true
		case "s", "f":
			if ev.ID == "" {
				t.Fatalf("event %d: flow event without id", i)
			}
		case "M":
			continue // metadata is unordered
		default:
			t.Fatalf("event %d: unknown phase %q", i, ev.Ph)
		}
		key := [2]int{ev.Pid, ev.Tid}
		if ev.Ts < lastTs[key] {
			t.Fatalf("event %d (%s): ts %v < previous %v on track %v — not monotonic",
				i, ev.Name, ev.Ts, lastTs[key], key)
		}
		lastTs[key] = ev.Ts
	}
	if !sawSlice || !sawDepth || !sawSeries || !sawInstant {
		t.Fatalf("missing track types: slice=%v depth=%v series=%v instant=%v",
			sawSlice, sawDepth, sawSeries, sawInstant)
	}
}

// TestPerfettoProvenanceSchema validates the decision-provenance and
// episode annotation tracks: the export stays valid JSON, instants land
// on the right per-CPU tracks with monotonic timestamps, and every
// flow-start arrow resolves to exactly one flow-end with the same
// (cat, id) binding.
func TestPerfettoProvenanceSchema(t *testing.T) {
	ms := func(n int64) sim.Time { return sim.Time(n) * sim.Millisecond }
	var considered trace.Mask
	considered.Set(0)
	considered.Set(3)
	prov := []trace.Event{
		{At: ms(1), Kind: trace.KindBalance, Op: trace.OpPeriodicBalance,
			Code: uint8(trace.VerdictBalanced), CPU: 1, Dst: 2, Arg: 100, Aux: 300, Mask: considered},
		{At: ms(2), Kind: trace.KindStealReject, Op: trace.OpNewIdleBalance,
			Code: uint8(trace.VerdictPinned), CPU: 0, Dst: 3, Arg: 250, Mask: considered},
		{At: ms(3), Kind: trace.KindWakeup, Code: trace.WakeOriginal,
			CPU: 0, Dst: 3, Arg: 7, Aux: 1, Mask: considered},
		{At: ms(4), Kind: trace.KindWakeup, Code: trace.WakeFixed, CPU: 2, Dst: 2, Arg: 8},
		{At: ms(5), Kind: trace.KindMigration, Op: trace.OpPeriodicBalance, CPU: 3, Dst: 1, Arg: 7},
	}
	episodes := []EpisodeMark{
		{OnsetNs: int64(ms(1)), DetectedNs: int64(ms(4)), Kind: "checker", IdleCPU: 2, BusyCPU: 0},
		{OnsetNs: int64(ms(2)), DetectedNs: int64(ms(5)), Kind: "streak", IdleCPU: -1, BusyCPU: -1},
	}

	var buf bytes.Buffer
	err := WritePerfetto(&buf, syntheticEvents(), nil, PerfettoOpts{Prov: prov, Episodes: episodes})
	if err != nil {
		t.Fatal(err)
	}
	var f pfCheck
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}

	type flowKey struct{ cat, id string }
	starts, ends := map[flowKey]int{}, map[flowKey]int{}
	var sawProv, sawEpisode int
	lastTs := map[[2]int]float64{}
	for i, ev := range f.TraceEvents {
		switch ev.Ph {
		case "s":
			starts[flowKey{ev.Cat, ev.ID}]++
		case "f":
			ends[flowKey{ev.Cat, ev.ID}]++
		case "M":
			continue
		}
		switch ev.Cat {
		case "provenance":
			sawProv++
		case "episode":
			sawEpisode++
		}
		key := [2]int{ev.Pid, ev.Tid}
		if ev.Ts < lastTs[key] {
			t.Fatalf("event %d (%s): ts %v < previous %v on track %v — not monotonic",
				i, ev.Name, ev.Ts, lastTs[key], key)
		}
		lastTs[key] = ev.Ts
	}
	if sawProv != len(prov) {
		t.Errorf("provenance instants = %d, want %d", sawProv, len(prov))
	}
	// Episode marks: 2 instants each; the streak episode draws no flow.
	if sawEpisode != 2*len(episodes) {
		t.Errorf("episode instants = %d, want %d", sawEpisode, 2*len(episodes))
	}
	// One wakeup flow (cpu0->cpu3; the cpu2->cpu2 wakeup draws none),
	// one migration flow, one checker-episode flow.
	if len(starts) != 3 {
		t.Errorf("distinct flow starts = %d, want 3: %v", len(starts), starts)
	}
	for k, n := range starts {
		if ends[k] != n {
			t.Errorf("flow %v: %d starts but %d ends", k, n, ends[k])
		}
	}
	for k := range ends {
		if starts[k] == 0 {
			t.Errorf("flow end %v has no start", k)
		}
	}
}

func TestPerfettoSeriesThinning(t *testing.T) {
	eng := sim.New(1)
	reg := NewRegistry(eng, Options{Cadence: sim.Millisecond, RingCap: 100})
	reg.Start()
	eng.RunUntil(100 * sim.Millisecond)

	var buf bytes.Buffer
	if err := WritePerfetto(&buf, nil, reg.Series(), PerfettoOpts{Cores: 1, MaxSeriesPoints: 10}); err != nil {
		t.Fatal(err)
	}
	var f pfCheck
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatal(err)
	}
	perName := map[string]int{}
	for _, ev := range f.TraceEvents {
		if ev.Ph == "C" {
			perName[ev.Name]++
		}
	}
	for name, n := range perName {
		if n > 10 {
			t.Fatalf("series %q emitted %d points, cap 10", name, n)
		}
	}
}
