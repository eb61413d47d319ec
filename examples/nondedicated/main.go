// Nondedicated demonstrates the paper's parallel-performance story on
// the virtual 20-node cluster: a background job on one node drags the
// whole phase-synchronized computation (the ripple effect), and the
// filtered dynamic remapping recovers most of the loss by draining the
// slow node. Compares all four schemes and prints the filtered scheme's
// per-node profile.
package main

import (
	"flag"
	"fmt"
	"log"

	"microslip"
)

func main() {
	log.SetFlags(0)
	var (
		phases = flag.Int("phases", 600, "LBM phases (the paper's Figure 9 uses 600)")
		slow   = flag.Int("slow", 10, "index of the slow node")
	)
	flag.Parse()

	setup := microslip.PaperSetup()
	slowTraces := microslip.FixedSlowNodes(setup.P, []int{*slow})

	fmt.Printf("20-node virtual cluster, node %d hosts a 70%% background job, %d phases\n\n", *slow, *phases)

	run := func(pol microslip.Policy, traces []microslip.SpeedTrace) *microslip.ClusterResult {
		cfg := microslip.DefaultClusterConfig(pol, traces, *phases)
		cfg.TotalPlanes = setup.TotalPlanes
		cfg.PlanePoints = setup.PlanePoints
		cfg.Seed = setup.Seed
		res, err := microslip.RunCluster(cfg)
		if err != nil {
			log.Fatal(err)
		}
		return res
	}

	ded := run(microslip.NoRemapPolicy(), microslip.Dedicated(setup.P))
	fmt.Printf("%-14s %9.1f s   speedup %5.2f\n", "dedicated", ded.TotalTime, ded.Speedup())
	var filtered *microslip.ClusterResult
	for _, name := range []string{"none", "conservative", "global", "filtered"} {
		pol, err := microslip.PolicyByName(name, setup.PlanePoints)
		if err != nil {
			log.Fatal(err)
		}
		res := run(pol, slowTraces)
		fmt.Printf("%-14s %9.1f s   speedup %5.2f   +%5.1f%% vs dedicated   slow node keeps %d planes\n",
			name, res.TotalTime, res.Speedup(),
			100*(res.TotalTime-ded.TotalTime)/ded.TotalTime,
			res.FinalPartition.Count(*slow))
		if name == "filtered" {
			filtered = res
		}
	}

	fmt.Println("\nfiltered scheme per-node breakdown (the paper's Figure 9):")
	fmt.Print(filtered.Profile.String())
	fmt.Printf("\nfinal plane assignment: %v\n", filtered.FinalPartition.Counts())
}
