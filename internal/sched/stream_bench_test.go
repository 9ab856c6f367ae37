package sched

import (
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/trace"
)

// cycleWorld is a loaded Bulldozer8 world whose threads run for a few
// milliseconds, sleep for a few hundred microseconds and wake again, so
// every decision hook stays hot: wakeup placement, newly-idle and
// periodic balancing, steals, migrations and runqueue changes. Block and
// wake timers go through the engine's allocation-free callback form, so
// the world itself adds no per-event allocations to the measurement.
type cycleWorld struct {
	s               *Scheduler
	eng             *sim.Engine
	gen             []uint32 // per-thread run generation: stale block timers are ignored
	blockCB, wakeCB func(uint64)
}

func newCycleWorld(attach func(*Scheduler)) *cycleWorld {
	eng := sim.New(42)
	s := New(eng, topology.Bulldozer8(), DefaultConfig())
	w := &cycleWorld{s: s, eng: eng}
	w.blockCB = func(arg uint64) {
		t := s.ThreadByID(int(arg >> 32))
		if uint32(arg) != w.gen[t.id] || t.State() != StateRunning {
			return
		}
		s.BlockCurrent(t, StateSleeping)
		eng.AfterCall(sim.Time(1+t.id%3)*300*sim.Microsecond, w.wakeCB, uint64(t.id))
	}
	w.wakeCB = func(arg uint64) { s.Wake(s.ThreadByID(int(arg)), nil) }
	s.SetHooks(w)
	attach(s)
	s.Start()
	// 96 threads started on node 0: an overloaded node next to seven idle
	// ones, the paper's starting point for every balancing bug.
	for i := 0; i < 96; i++ {
		w.gen = append(w.gen, 0)
		s.StartThreadOn(s.NewThread("cycle", ThreadOpts{}), topology.CoreID(i%8))
	}
	return w
}

func (w *cycleWorld) ThreadStarted(_ topology.CoreID, t *Thread) {
	w.gen[t.id]++
	run := sim.Time(1+t.id%4) * sim.Millisecond
	w.eng.AfterCall(run, w.blockCB, uint64(t.id)<<32|uint64(w.gen[t.id]))
}

func (w *cycleWorld) ThreadStopped(topology.CoreID, *Thread, StopReason) {}

// BenchmarkDecisionStream measures the cost of the scheduler's decision
// stream per simulation event, with no sink, with a provenance ring and
// with an active trace recorder attached. Sinks are built once and reset
// per iteration, so allocs/op counts the hook path and the world, not
// the sinks' preallocated buffers.
func BenchmarkDecisionStream(b *testing.B) {
	ring := obs.NewProvRing(0)
	rec := trace.NewRecorder(1 << 18)
	for _, bc := range []struct {
		name   string
		attach func(*Scheduler)
	}{
		{"sinks=none", func(*Scheduler) {}},
		{"sinks=provenance", func(s *Scheduler) {
			ring.Reset()
			s.Attach(ring)
		}},
		{"sinks=recorder", func(s *Scheduler) {
			rec.Reset()
			rec.Start()
			s.Attach(rec)
		}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			var events uint64
			for i := 0; i < b.N; i++ {
				w := newCycleWorld(bc.attach)
				w.eng.RunUntil(100 * sim.Millisecond)
				events += w.eng.Processed()
			}
			if rec.Dropped() != 0 {
				b.Fatalf("recorder dropped %d events: raise its capacity", rec.Dropped())
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
			b.ReportMetric(float64(events)/float64(b.N), "events/op")
		})
	}
}
