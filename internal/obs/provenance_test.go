package obs

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/trace"
)

func TestProvRingKeepsNewest(t *testing.T) {
	p := NewProvRing(4)
	for i := 0; i < 10; i++ {
		p.Record(trace.Event{At: sim.Time(i), Kind: trace.KindWakeup, Arg: int64(i)})
	}
	if p.Total() != 10 {
		t.Fatalf("Total = %d, want 10", p.Total())
	}
	if p.Dropped() != 6 {
		t.Fatalf("Dropped = %d, want 6", p.Dropped())
	}
	if p.Len() != 4 {
		t.Fatalf("Len = %d, want 4", p.Len())
	}
	recs := p.Records(nil)
	for i, r := range recs {
		if want := int64(6 + i); r.Arg != want {
			t.Fatalf("record %d: Arg = %d, want %d (oldest-first, newest retained)", i, r.Arg, want)
		}
	}
	p.Reset()
	if p.Len() != 0 || p.Total() != 0 || p.Dropped() != 0 {
		t.Fatalf("Reset left state: len=%d total=%d dropped=%d", p.Len(), p.Total(), p.Dropped())
	}
}

// A reset ring is reused for every explain replay of a scenario: after
// a wrap and a Reset it must hold only the new records, oldest first,
// and keep recording without allocating.
func TestProvRingResetAfterWrap(t *testing.T) {
	p := NewProvRing(4)
	for i := 0; i < 7; i++ {
		p.Record(trace.Event{Arg: int64(i)})
	}
	p.Reset()
	for i := 100; i < 103; i++ {
		p.Record(trace.Event{Arg: int64(i)})
	}
	recs := p.Records(nil)
	if len(recs) != 3 || p.Total() != 3 || p.Dropped() != 0 {
		t.Fatalf("after Reset: %d records, total %d, dropped %d; want 3, 3, 0",
			len(recs), p.Total(), p.Dropped())
	}
	for i, r := range recs {
		if want := int64(100 + i); r.Arg != want {
			t.Fatalf("record %d: Arg = %d, want %d", i, r.Arg, want)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		p.Record(trace.Event{Kind: trace.KindWakeup})
	})
	if allocs != 0 {
		t.Fatalf("Record after Reset allocates %.1f/op, want 0", allocs)
	}
}

func TestProvRingRecordsPartial(t *testing.T) {
	p := NewProvRing(8)
	p.Record(trace.Event{At: 1})
	p.Record(trace.Event{At: 2})
	recs := p.Records(nil)
	if len(recs) != 2 || recs[0].At != 1 || recs[1].At != 2 {
		t.Fatalf("partial ring order wrong: %+v", recs)
	}
}

// Record must stay allocation-free: producers call it from the
// scheduler hot path with provenance enabled, and every explain replay
// records into the same reset ring, whose cost must stay predictable.
func TestProvRingRecordAllocFree(t *testing.T) {
	p := NewProvRing(16)
	rec := trace.Event{Kind: trace.KindBalance, Op: trace.OpPeriodicBalance}
	allocs := testing.AllocsPerRun(200, func() {
		p.Record(rec)
	})
	if allocs != 0 {
		t.Fatalf("Record allocates %.1f/op, want 0", allocs)
	}
}

// TestProvRecordString pins the text of each provenance record kind:
// explain reports quote it in their first-divergence strings.
func TestProvRecordString(t *testing.T) {
	var mask trace.Mask
	mask.Set(3)
	mask.Set(5)
	cases := []struct {
		r    trace.Event
		want string
	}{
		{trace.Event{At: 1000, Kind: trace.KindBalance, Op: trace.OpPeriodicBalance, CPU: 2, Arg: 7, Aux: 9, Dst: 1},
			"1µs balance[periodic] cpu2 moved local=7 busiest=9 moved=1"},
		{trace.Event{At: 1000, Kind: trace.KindStealReject, Op: trace.OpNewIdleBalance,
			Code: uint8(trace.VerdictPinned), CPU: 1, Dst: 6, Arg: 300, Mask: mask},
			"1µs steal-reject cpu1 <- cpu6 pinned busiest=300"},
		{trace.Event{At: 1000, Kind: trace.KindWakeup, CPU: 0, Dst: 4, Arg: 12, Aux: 1, Code: trace.WakeFixed, Mask: mask},
			"1µs wakeup t12 cpu0 -> cpu4 path=fixed considered=2 busy-while-idle"},
		{trace.Event{At: 1000, Kind: trace.KindWakeup, CPU: 3, Dst: 3, Arg: 5, Code: trace.WakeOriginal},
			"1µs wakeup t5 cpu3 -> cpu3 path=original considered=0"},
		{trace.Event{At: 1000, Kind: trace.KindMigration, Op: trace.OpHotplug, CPU: 3, Dst: 1, Arg: 7},
			"1µs migrate t7 cpu3 -> cpu1 cause=hotplug"},
	}
	for _, c := range cases {
		if s := c.r.String(); s != c.want {
			t.Errorf("String() = %q, want %q", s, c.want)
		}
	}
	if trace.KindStealReject.String() != "steal-reject" || trace.KindWakeup.String() != "wakeup" {
		t.Fatalf("kind strings: %s, %s", trace.KindStealReject, trace.KindWakeup)
	}
}
