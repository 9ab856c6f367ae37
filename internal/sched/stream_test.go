package sched

import (
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/trace"
)

// A stopped recorder must leave the run untouched: a runqueue-load record
// reads CPULoad, which folds per-thread load averages forward, so the
// scheduler may build records only while a subscribed sink is active.
func TestStoppedRecorderLeavesRunUnchanged(t *testing.T) {
	plain := newCycleWorld(func(*Scheduler) {})
	rec := trace.NewRecorder(1 << 10)
	withRec := newCycleWorld(func(s *Scheduler) { s.Attach(rec) })
	plain.eng.RunUntil(50 * sim.Millisecond)
	withRec.eng.RunUntil(50 * sim.Millisecond)
	if rec.Len() != 0 {
		t.Fatalf("stopped recorder took %d records", rec.Len())
	}
	if plain.s.Counters() != withRec.s.Counters() || plain.eng.Processed() != withRec.eng.Processed() {
		t.Fatalf("stopped recorder changed the run: %+v vs %+v", plain.s.Counters(), withRec.s.Counters())
	}
	for i, th := range plain.s.threads {
		if th.la != withRec.s.threads[i].la {
			t.Fatalf("thread %d: load average %+v, %+v with a stopped recorder", i, th.la, withRec.s.threads[i].la)
		}
	}
}

// wakeLog is a LatencyProbe that logs each wakeup placement.
type wakeLog struct{ placed []wakeFact }

type wakeFact struct {
	cpu               topology.CoreID
	busy, idleAllowed bool
}

func (w *wakeLog) WaitEnd(sim.Time, *Thread, topology.CoreID, sim.Time, bool) {}
func (w *wakeLog) WakeupPlaced(_ sim.Time, _ *Thread, cpu topology.CoreID, busy, idleAllowed bool) {
	w.placed = append(w.placed, wakeFact{cpu, busy, idleAllowed})
}

// Each sink takes exactly the kinds it subscribes to, from one record
// per decision: the recorder gets its trace form (a moved balance's
// count and a migration's destination in Aux), the ring the decision
// form (both in Dst), and the ring's busy-while-idle witness agrees
// with what the latency probe was told for the same wakeup.
func TestSinksTakeTheirKinds(t *testing.T) {
	ring := obs.NewProvRing(1 << 16)
	rec := trace.NewRecorder(1 << 18)
	probe := &wakeLog{}
	w := newCycleWorld(func(s *Scheduler) {
		s.Attach(ring)
		s.Attach(rec)
		rec.Start()
		s.SetLatencyProbe(probe)
	})
	w.eng.RunUntil(100 * sim.Millisecond)
	if ring.Dropped() != 0 || rec.Dropped() != 0 {
		t.Fatalf("sinks overflowed: ring %d, recorder %d", ring.Dropped(), rec.Dropped())
	}

	count := map[trace.Kind]int{}
	var wakeups, balances, migrations []trace.Event
	for _, ev := range ring.Records(nil) {
		if !obs.ProvenanceKinds.Has(ev.Kind) {
			t.Fatalf("ring took a %s record", ev.Kind)
		}
		switch ev.Kind {
		case trace.KindWakeup:
			wakeups = append(wakeups, ev)
		case trace.KindBalance:
			balances = append(balances, ev)
		case trace.KindMigration:
			migrations = append(migrations, ev)
		}
		count[ev.Kind]++
	}
	var traced []trace.Event
	for _, ev := range rec.Events() {
		if !trace.RecorderKinds.Has(ev.Kind) || ev.Dst != 0 {
			t.Fatalf("recorder took %+v", ev)
		}
		if ev.Kind == trace.KindBalance || ev.Kind == trace.KindMigration {
			traced = append(traced, ev)
		}
	}
	for _, k := range []trace.Kind{trace.KindWakeup, trace.KindBalance, trace.KindMigration, trace.KindStealReject} {
		if count[k] == 0 {
			t.Fatalf("the world produced no %s records; it no longer exercises every hook", k)
		}
	}

	// The recorder's balance and migration records are the ring's, in
	// the same order, in trace form.
	decisions := 0
	for _, ev := range ring.Records(nil) {
		if ev.Kind != trace.KindBalance && ev.Kind != trace.KindMigration {
			continue
		}
		want := ev
		if ev.Kind == trace.KindMigration || trace.Verdict(ev.Code) == trace.VerdictMoved {
			want.Aux = int64(ev.Dst)
		}
		want.Dst = 0
		if decisions >= len(traced) || traced[decisions] != want {
			t.Fatalf("decision %d: recorder has %+v, want the trace form %+v of %+v", decisions, traced[decisions], want, ev)
		}
		decisions++
	}
	if decisions != len(traced) || len(balances)+len(migrations) != decisions {
		t.Fatalf("recorder has %d balance/migration records, ring %d", len(traced), decisions)
	}

	if len(probe.placed) != len(wakeups) {
		t.Fatalf("probe saw %d wakeups, ring %d", len(probe.placed), len(wakeups))
	}
	witnessed := 0
	for i, ev := range wakeups {
		f := probe.placed[i]
		if topology.CoreID(ev.Dst) != f.cpu || (ev.Aux != 0) != (f.busy && f.idleAllowed) {
			t.Fatalf("wakeup %d: ring %s, probe %+v", i, ev, f)
		}
		if ev.Aux != 0 {
			witnessed++
		}
	}
	if witnessed == 0 {
		t.Fatal("no wakeup landed busy while an allowed core idled; the check is vacuous")
	}
}

// Clone drops a provenance ring (a replay attaches its own) and refuses
// every other sink.
func TestCloneSinks(t *testing.T) {
	s := newTestSched(topology.TwoNode(4), DefaultConfig())
	s.Attach(obs.NewProvRing(16))
	if c := s.Clone(s.eng.Fork()); len(c.sinks) != 0 || c.kinds != 0 {
		t.Fatalf("clone kept %d sinks (kinds %b)", len(c.sinks), c.kinds)
	}
	for name, attach := range map[string]func(*Scheduler){
		"recorder": func(s *Scheduler) { s.Attach(trace.NewRecorder(16)) },
		"metrics":  func(s *Scheduler) { s.AttachObs(obs.NewRegistry(s.eng, obs.Options{})) },
	} {
		s := newTestSched(topology.TwoNode(4), DefaultConfig())
		attach(s)
		func() {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(r.(string), "sink attached") {
					t.Errorf("%s: Clone recovered %v, want a sink panic", name, r)
				}
			}()
			s.Clone(s.eng.Fork())
		}()
	}
}
