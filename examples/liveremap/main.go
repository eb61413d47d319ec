// Liveremap demonstrates the paper's mechanism on real wall-clock time,
// not in the virtual cluster: four worker goroutines run the actual
// domain-decomposed LBM solver over in-process message passing while
// one of them is genuinely throttled (it sleeps in proportion to its
// assigned planes, emulating a CPU-hogging background job). Run once
// without remapping and once with the filtered scheme, and compare the
// measured elapsed times — the filtered run drains the slow worker and
// finishes far sooner, exactly as in the paper's Figure 9.
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"microslip"
	"microslip/internal/parlbm"
)

func main() {
	log.SetFlags(0)
	var (
		phases   = flag.Int("phases", 60, "LBM phases")
		slowRank = flag.Int("slow", 1, "rank to throttle")
		perPlane = flag.Duration("delay", 2*time.Millisecond, "extra delay per plane per phase on the slow rank")
	)
	flag.Parse()

	p := microslip.WaterAirChannel(32, 16, 8)
	const ranks = 4
	if *slowRank < 0 || *slowRank >= ranks {
		log.Fatalf("-slow %d: want a rank in [0, %d)", *slowRank, ranks)
	}

	throttle := func(rank, planes, phase int) {
		if rank == *slowRank {
			time.Sleep(time.Duration(planes) * *perPlane)
		}
	}

	run := func(pol microslip.Policy) (time.Duration, []*parlbm.Result) {
		start := time.Now()
		_, results, err := microslip.RunParallel(p, ranks, parlbm.Options{
			Phases:   *phases,
			Policy:   pol,
			Throttle: throttle,
		})
		if err != nil {
			log.Fatal(err)
		}
		return time.Since(start), results
	}

	fmt.Printf("4 real workers, rank %d throttled by %v per plane, %d phases\n\n", *slowRank, *perPlane, *phases)

	elapsedNone, resNone := run(microslip.NoRemapPolicy())
	fmt.Printf("no remapping:       %8.2fs  planes %v\n", elapsedNone.Seconds(), finalPlanes(resNone))

	fpol := microslip.NewFilteredPolicy(p.NY * p.NZ)
	fpol.Cfg.Interval = 5 // react quickly in a short demo
	fpol.Cfg.HistoryK = 3
	elapsedFilt, resFilt := run(fpol)
	fmt.Printf("filtered remapping: %8.2fs  planes %v\n", elapsedFilt.Seconds(), finalPlanes(resFilt))

	fmt.Printf("\nreal wall-clock improvement: %.0f%%\n",
		100*(elapsedNone.Seconds()-elapsedFilt.Seconds())/elapsedNone.Seconds())
	// Claim the drain only when a throttled rank shed planes: with
	// nothing throttled (-delay 0s) the planes drift on timing noise.
	if *perPlane > 0 && finalPlanes(resFilt)[*slowRank] < p.NX/ranks {
		fmt.Println("(the filtered scheme drained the throttled worker's planes onto its neighbors)")
	}
}

func finalPlanes(results []*parlbm.Result) []int {
	out := make([]int, len(results))
	for _, r := range results {
		out[r.Rank] = r.FinalCount
	}
	return out
}
