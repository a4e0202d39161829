// Checkpointing: the paper's motivation — checkpoint writes are becoming
// the bottleneck for failure-prone large machines. This example connects
// the reproduced I/O results to application goodput: how much useful
// compute a 1,024-rank simulation retains under different file system
// configurations, using Young's optimal checkpoint interval.
package main

import (
	"fmt"
	"log"

	"pfsim"
)

func main() {
	app := pfsim.Checkpoint{
		Ranks:          1024,
		StateMBPerRank: 400,       // the Table II volume
		ComputeSeconds: 3600,      // an hour of compute per checkpoint era
		MTBFSeconds:    24 * 3600, // one failure a day
	}
	plat := pfsim.Cab()

	fmt.Printf("Checkpointing app: %d ranks × %.0f MB state, MTBF %.0f h\n\n",
		app.Ranks, app.StateMBPerRank, app.MTBFSeconds/3600)

	configs := []struct {
		name string
		cfg  pfsim.IORConfig
	}{
		{"default (ad_ufs, 2×1MB)", func() pfsim.IORConfig {
			c := pfsim.PaperIOR(1024)
			c.API = pfsim.DriverUFS
			return c
		}()},
		{"tuned (ad_lustre, 160×128MB)", pfsim.TunedIOR(1024)},
		{"PLFS (ad_plfs)", func() pfsim.IORConfig {
			c := pfsim.PaperIOR(1024)
			c.API = pfsim.DriverPLFS
			return c
		}()},
	}

	// The three configurations are independent simulations; the Runner
	// fans them across the machine's cores.
	runner := pfsim.NewRunner(pfsim.WithoutSlowdowns())
	var scs []pfsim.Scenario
	for _, tc := range configs {
		cfg := tc.cfg
		cfg.Label = "ckpt-" + tc.name[:7]
		cfg.Reps = 3
		scs = append(scs, pfsim.NewScenario(cfg.Label,
			pfsim.ScenarioJob{Workload: pfsim.IORWorkload(cfg)}))
	}
	out, err := runner.RunScenarios(plat, scs)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("config                          MB/s     ckpt time   Young interval   goodput")
	for i, tc := range configs {
		bw := out[i].Jobs[0].WriteMBs()
		fmt.Printf("%-30s  %-7.0f  %-10.0fs  %-15.0fs  %.1f%%\n",
			tc.name, bw, app.WriteSeconds(bw), app.YoungInterval(bw),
			100*app.GoodputFraction(bw))
	}

	// New with the Scenario API: run the checkpointer as a periodic
	// workload (write, compute, write, ...) next to a noisy neighbour and
	// see what contention does to its achieved checkpoint bandwidth.
	noisy := pfsim.TunedIOR(1024)
	noisy.Label = "neighbour"
	noisy.Reps = 5
	res, err := pfsim.NewRunner().RunScenario(plat, pfsim.NewScenario("shared-machine",
		pfsim.ScenarioJob{Workload: pfsim.CheckpointWorkload(app, pfsim.TunedHints(), 3)},
		pfsim.ScenarioJob{Workload: pfsim.IORWorkload(noisy)},
	))
	if err != nil {
		log.Fatal(err)
	}
	ck := res.Jobs[0]
	fmt.Printf("\nWith a tuned 1,024-rank neighbour, checkpoints run at %.0f MB/s "+
		"(%.2fx slower than alone),\nshifting goodput from %.1f%% to %.1f%%.\n",
		ck.WriteMBs(), ck.Slowdown,
		100*app.GoodputFraction(ck.SoloMBs), 100*app.GoodputFraction(ck.WriteMBs()))

	fmt.Println("\nFaster checkpoints permit shorter intervals and waste less work per")
	fmt.Println("failure — the paper's 49× I/O tuning translates directly into goodput.")
}
