package trace

import (
	"bytes"
	"encoding/json"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestRecorderInactiveDropsAll(t *testing.T) {
	r := NewRecorder(16)
	r.Record(Event{Kind: KindRQSize})
	if r.Len() != 0 {
		t.Fatal("inactive recorder stored an event")
	}
}

func TestRecorderStartStop(t *testing.T) {
	r := NewRecorder(16)
	r.Start()
	if !r.Active() {
		t.Fatal("not active after Start")
	}
	r.Record(Event{Kind: KindRQSize, CPU: 3, Arg: 2})
	r.Stop()
	r.Record(Event{Kind: KindRQSize, CPU: 4, Arg: 1})
	if r.Len() != 1 {
		t.Fatalf("Len = %d, want 1", r.Len())
	}
	if ev := r.Events()[0]; ev.CPU != 3 || ev.Arg != 2 {
		t.Fatalf("wrong event stored: %+v", ev)
	}
}

func TestRecorderCapacity(t *testing.T) {
	r := NewRecorder(4)
	r.Start()
	for i := 0; i < 10; i++ {
		r.Record(Event{At: sim.Time(i)})
	}
	if r.Len() != 4 {
		t.Fatalf("Len = %d, want 4", r.Len())
	}
	if r.Dropped() != 6 {
		t.Fatalf("Dropped = %d, want 6", r.Dropped())
	}
	r.Reset()
	if r.Len() != 0 || r.Dropped() != 0 {
		t.Fatal("Reset did not clear state")
	}
}

func TestFilters(t *testing.T) {
	r := NewRecorder(16)
	r.Start()
	r.Record(Event{At: 10, Kind: KindRQSize, CPU: 0})
	r.Record(Event{At: 20, Kind: KindRQLoad, CPU: 1})
	r.Record(Event{At: 30, Kind: KindRQSize, CPU: 2})
	if got := r.ByKind(KindRQSize); len(got) != 2 {
		t.Fatalf("ByKind = %d events, want 2", len(got))
	}
	if got := r.Between(15, 30); len(got) != 1 || got[0].CPU != 1 {
		t.Fatalf("Between = %+v", got)
	}
}

func TestMask(t *testing.T) {
	var m Mask
	m.Set(0)
	m.Set(63)
	m.Set(64)
	m.Set(127)
	for _, c := range []int{0, 63, 64, 127} {
		if !m.Has(c) {
			t.Fatalf("bit %d not set", c)
		}
	}
	if m.Has(1) || m.Has(65) {
		t.Fatal("unexpected bit set")
	}
	if m.Count() != 4 {
		t.Fatalf("Count = %d, want 4", m.Count())
	}
}

func TestKindOpStrings(t *testing.T) {
	kinds := []Kind{KindRQSize, KindRQLoad, KindConsidered, KindMigration, KindFork, KindExit, Kind(99)}
	for _, k := range kinds {
		if k.String() == "" {
			t.Fatalf("empty string for kind %d", k)
		}
	}
	ops := []Op{OpNone, OpPeriodicBalance, OpNewIdleBalance, OpNohzBalance, OpWakeup, OpFork, Op(99)}
	for _, o := range ops {
		if o.String() == "" {
			t.Fatalf("empty string for op %d", o)
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	r := NewRecorder(64)
	r.Start()
	var m Mask
	m.Set(5)
	m.Set(70)
	r.Record(Event{At: 123456, Kind: KindConsidered, Op: OpWakeup, CPU: 7, Arg: -3, Aux: 42, Mask: m})
	r.Record(Event{At: 999, Kind: KindMigration, CPU: 1, Arg: 100, Aux: 2})

	var buf bytes.Buffer
	if _, err := r.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("decoded %d events, want 2", len(got))
	}
	for i, want := range r.Events() {
		if got[i] != want {
			t.Fatalf("event %d: got %+v, want %+v", i, got[i], want)
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := Read(bytes.NewReader([]byte("short"))); err == nil {
		t.Fatal("want error on truncated header")
	}
	bad := append([]byte("XXXX"), make([]byte, 12)...)
	if _, err := Read(bytes.NewReader(bad)); err == nil {
		t.Fatal("want error on bad magic")
	}
	// Valid header claiming one event but no payload.
	hdr := []byte{'W', 'C', 'T', 'R', 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0}
	if _, err := Read(bytes.NewReader(hdr)); err == nil {
		t.Fatal("want error on truncated body")
	}
}

func TestPropertyRoundTrip(t *testing.T) {
	f := func(ats []int64, cpus []int16, args []int64) bool {
		n := len(ats)
		if len(cpus) < n {
			n = len(cpus)
		}
		if len(args) < n {
			n = len(args)
		}
		r := NewRecorder(n + 1)
		r.Start()
		for i := 0; i < n; i++ {
			at := ats[i]
			if at < 0 {
				at = -at
			}
			r.Record(Event{At: sim.Time(at), Kind: KindRQLoad, CPU: int32(cpus[i]), Arg: args[i]})
		}
		var buf bytes.Buffer
		if _, err := r.WriteTo(&buf); err != nil {
			return false
		}
		got, err := Read(&buf)
		if err != nil || len(got) != n {
			return false
		}
		for i := range got {
			if got[i] != r.Events()[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestWriteJSON(t *testing.T) {
	r := NewRecorder(8)
	r.Start()
	var m Mask
	m.Set(3)
	r.Record(Event{At: 100, Kind: KindConsidered, Op: OpWakeup, CPU: 2, Arg: 5, Mask: m})
	r.Record(Event{At: 200, Kind: KindRQSize, CPU: 0, Arg: 1})
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
	if len(lines) != 2 {
		t.Fatalf("lines = %d, want 2", len(lines))
	}
	var first map[string]any
	if err := json.Unmarshal(lines[0], &first); err != nil {
		t.Fatal(err)
	}
	if first["kind"] != "considered" || first["op"] != "wakeup" {
		t.Fatalf("first line = %v", first)
	}
	var second map[string]any
	if err := json.Unmarshal(lines[1], &second); err != nil {
		t.Fatal(err)
	}
	if _, hasOp := second["op"]; hasOp {
		t.Fatal("zero op should be omitted")
	}
}

// Take stores a decision record in its trace form: a migration's
// destination and a moved balance's thread count move from Dst to Aux,
// every other record keeps Aux, and no stored event carries a Dst.
func TestRecorderTakeTraceForm(t *testing.T) {
	r := NewRecorder(8)
	r.Take(Event{Kind: KindMigration, CPU: 1, Dst: 3, Arg: 7})
	r.Start()
	r.Take(Event{Kind: KindMigration, CPU: 1, Dst: 3, Arg: 7})
	r.Take(Event{Kind: KindBalance, Code: uint8(VerdictMoved), Dst: 2, Arg: 10, Aux: 40})
	r.Take(Event{Kind: KindBalance, Code: uint8(VerdictBalanced), Arg: 10, Aux: 40})
	want := []Event{
		{Kind: KindMigration, CPU: 1, Arg: 7, Aux: 3},
		{Kind: KindBalance, Code: uint8(VerdictMoved), Arg: 10, Aux: 2},
		{Kind: KindBalance, Code: uint8(VerdictBalanced), Arg: 10, Aux: 40},
	}
	got := r.Events()
	if len(got) != len(want) {
		t.Fatalf("recorded %d events, want %d (a stopped recorder takes nothing)", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d: %+v, want %+v", i, got[i], want[i])
		}
	}
	if !r.Kinds().Has(KindBalance) || r.Kinds().Has(KindWakeup) || r.Kinds().Has(KindStealReject) {
		t.Fatalf("recorder kinds %b", r.Kinds())
	}
}
