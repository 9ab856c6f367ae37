// Group Imbalance demo (§3.1 / Figure 2): a 64-thread make and two
// single-threaded high-load R processes on the 64-core machine. With the
// bug, the nodes hosting the R threads keep idle cores — their *average*
// load looks high — while make crowds the other nodes two-deep. The demo
// renders the runqueue heatmap both ways and writes a binary trace that
// cmd/schedviz can re-render.
package main

import (
	"fmt"
	"os"

	schedsim "repro"
)

func run(fix bool) {
	topo := schedsim.Bulldozer8()
	cfg := schedsim.DefaultConfig()
	cfg.Features.FixGroupImbalance = fix

	m := schedsim.NewMachine(topo, cfg, 42)
	rec := schedsim.NewRecorder(1 << 20)
	m.Sched.Attach(rec)

	// Two R processes (own ttys) and one make -j64 (a third tty).
	schedsim.LaunchR(m, topo.CoresOfNode(0)[0], 10*schedsim.Second)
	schedsim.LaunchR(m, topo.CoresOfNode(4)[0], 10*schedsim.Second)
	mk := schedsim.DefaultMakeOpts()
	mk.SpawnCore = topo.CoresOfNode(2)[0]
	mkProc := schedsim.LaunchMake(m, mk)

	m.Run(60 * schedsim.Millisecond)
	rec.Start()
	m.Sched.EmitSnapshot()
	m.Run(120 * schedsim.Millisecond)
	rec.Stop()
	end, _ := m.RunUntilDone(10*schedsim.Second, mkProc)

	label := "with Group Imbalance bug"
	if fix {
		label = "with minimum-load fix"
	}
	fmt.Printf("=== %s: make finished at %v ===\n", label, end)
	heat := schedsim.RQSizeHeatmap(rec.Events(), topo.NumCores(), 120,
		60*schedsim.Millisecond, 180*schedsim.Millisecond)
	heat.RowGroup = func(r int) int { return int(topo.NodeOf(schedsim.CoreID(r))) }
	fmt.Print(heat.ASCII(2))
	fmt.Println()

	if !fix {
		// Save the buggy trace for cmd/schedviz.
		f, err := os.Create("groupimbalance.trace")
		if err == nil {
			defer f.Close()
			if _, err := rec.WriteTo(f); err == nil {
				fmt.Println("wrote groupimbalance.trace (render with: go run ./cmd/schedviz -trace groupimbalance.trace)")
			}
		}
	}
}

func main() {
	run(false)
	run(true)
}
