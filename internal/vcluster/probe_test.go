package vcluster

import (
	"testing"

	"microslip/internal/balance"
)

// TestProbeFig9Numbers logs the virtual-cluster outcomes for the
// Figure 9 scenario so calibration drift is visible in -v runs.
func TestProbeFig9Numbers(t *testing.T) {
	const phases = 600
	run := func(policy balance.Policy, traces []SpeedTrace) *Result {
		cfg := DefaultConfig(policy, traces, phases)
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	ded := run(balance.NoRemap(), Dedicated(20))
	slow := FixedSlowNodes(20, []int{9})
	none := run(balance.NoRemap(), slow)
	filt := run(balance.NewFiltered(4000), slow)
	cons := run(balance.NewConservative(4000), slow)
	glob := run(balance.NewGlobal(4000), slow)
	t.Logf("dedicated    %7.1f s  speedup %.2f", ded.TotalTime, ded.Speedup())
	t.Logf("no-remap     %7.1f s  (paper 717)", none.TotalTime)
	t.Logf("filtered     %7.1f s  (paper 313), slow node planes %d, moved %d",
		filt.TotalTime, filt.FinalPartition.Count(9), filt.PlanesMoved)
	t.Logf("conservative %7.1f s  (paper ~513), slow node planes %d, moved %d",
		cons.TotalTime, cons.FinalPartition.Count(9), cons.PlanesMoved)
	t.Logf("global       %7.1f s, slow node planes %d, moved %d",
		glob.TotalTime, glob.FinalPartition.Count(9), glob.PlanesMoved)
}
