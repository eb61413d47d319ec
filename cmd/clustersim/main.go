// Command clustersim runs one virtual-cluster performance experiment:
// a remapping scheme against a background-job workload on the paper's
// 20-node setup. Experiments come either from a JSON config file or
// from flags.
//
// Usage:
//
//	clustersim -config experiment.json
//	clustersim -policy filtered -phases 600 -workload fixed-slow -slow 9
//	clustersim -policy global -workload spikes -spike 2
//	clustersim -policy none -workload duty-cycle -node 9 -duty 0.8
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"microslip/internal/config"
	"microslip/internal/runctl"
	"microslip/internal/vcluster"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("clustersim: ")
	var (
		cfgPath  = flag.String("config", "", "JSON experiment file (overrides other flags)")
		policy   = flag.String("policy", "filtered", "remapping scheme: none|filtered|conservative|global")
		nodes    = flag.Int("nodes", 20, "cluster nodes")
		phases   = flag.Int("phases", 600, "LBM phases")
		workload = flag.String("workload", "fixed-slow", "workload: dedicated|fixed-slow|duty-cycle|spikes")
		slow     = flag.String("slow", "", "comma-separated slow node indices (fixed-slow)")
		count    = flag.Int("slow-count", 1, "number of spread slow nodes when -slow is empty")
		node     = flag.Int("node", 10, "disturbed node (duty-cycle)")
		duty     = flag.Float64("duty", 0.7, "competing-job duty cycle (duty-cycle)")
		spike    = flag.Float64("spike", 2, "spike length in seconds (spikes)")
		seed     = flag.Int64("seed", 1, "workload and jitter seed")
		coalesce = flag.Bool("coalesce", false, "model the one-frame-per-neighbor halo protocol parlbm runs")
		profileF = flag.Bool("profile", false, "print the per-node time breakdown")
		timeline = flag.String("timeline", "", "write the per-phase makespan timeline as CSV to this file")
	)
	flag.Parse()

	var exp *config.Experiment
	if *cfgPath != "" {
		var err error
		exp, err = config.ReadFile(*cfgPath)
		if err != nil {
			log.Fatal(err)
		}
	} else {
		exp = &config.Experiment{
			Nodes: *nodes, Phases: *phases, Policy: *policy, Seed: *seed,
			Workload: config.Workload{
				Type: *workload, SlowCount: *count, Node: *node,
				Duty: *duty, SpikeSeconds: *spike,
			},
		}
		if *slow != "" {
			for _, part := range strings.Split(*slow, ",") {
				n, err := strconv.Atoi(strings.TrimSpace(part))
				if err != nil {
					log.Fatalf("bad -slow entry %q: %v", part, err)
				}
				exp.Workload.SlowNodes = append(exp.Workload.SlowNodes, n)
			}
		}
		if *workload != "spikes" {
			exp.Workload.SpikeSeconds = 0
		}
		exp.Default()
		if err := exp.Validate(); err != nil {
			log.Fatal(err)
		}
	}

	cfg, err := exp.BuildConfig()
	if err != nil {
		log.Fatal(err)
	}
	cfg.RecordTimeline = *timeline != ""
	cfg.Costs.CoalescedHalo = *coalesce
	if err := cfg.Costs.Validate(); err != nil {
		log.Fatal(err)
	}
	// SIGINT/SIGTERM interrupt the phase loop at the next boundary; the
	// partial trajectory simulated so far is still reported and written.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	cfg.Ctx = ctx
	res, err := vcluster.Run(cfg)
	interrupted := errors.Is(err, runctl.ErrCanceled)
	if err != nil && !interrupted {
		log.Fatal(err)
	}
	if interrupted {
		fmt.Printf("interrupted: %d of %d phases simulated; partial trajectory follows\n",
			res.CompletedPhases, exp.Phases)
	}

	fmt.Printf("scheme %s, workload %s, %d nodes, %d phases\n",
		exp.Policy, exp.Workload.Type, exp.Nodes, exp.Phases)
	fmt.Printf("execution time   %10.1f s\n", res.TotalTime)
	fmt.Printf("sequential time  %10.1f s\n", res.SequentialTime)
	fmt.Printf("speedup          %10.2f\n", res.Speedup())
	fmt.Printf("planes moved     %10d in %d remapping rounds\n", res.PlanesMoved, res.RemapRounds)
	fmt.Printf("final planes     %v\n", res.FinalPartition.Counts())
	if *profileF {
		fmt.Println()
		fmt.Print(res.Profile.String())
	}
	if *timeline != "" {
		if err := os.WriteFile(*timeline, []byte(res.Timeline.CSV()), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("timeline written to %s (p50 %.3f s, p95 %.3f s per phase)\n",
			*timeline, res.Timeline.Percentile(0.5), res.Timeline.Percentile(0.95))
	}
}
