package microslip_test

import (
	"strings"
	"testing"

	"microslip"
)

// The facade must support the README's advertised flows end to end.
func TestFacadePhysicsFlow(t *testing.T) {
	if testing.Short() {
		t.Skip("physics run")
	}
	setup := microslip.PhysicsSetup{NX: 8, NY: 32, NZ: 8, Steps: 600, SampleZ: 4}
	res, err := microslip.RunSlipPhysics(setup)
	if err != nil {
		t.Fatal(err)
	}
	if res.WaterDensity[0] >= 1 {
		t.Errorf("no depletion via facade: %.4f", res.WaterDensity[0])
	}
	if !strings.Contains(res.Table(), "apparent slip") {
		t.Error("facade table missing slip line")
	}
}

func TestFacadeClusterFlow(t *testing.T) {
	pol := microslip.NewFilteredPolicy(4000)
	cfg := microslip.DefaultClusterConfig(pol,
		microslip.FixedSlowNodes(20, []int{9}), 150)
	run, err := microslip.RunCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if run.Speedup() < 5 {
		t.Errorf("implausible speedup %.2f", run.Speedup())
	}
	none, err := microslip.RunCluster(microslip.DefaultClusterConfig(
		microslip.NoRemapPolicy(), microslip.FixedSlowNodes(20, []int{9}), 150))
	if err != nil {
		t.Fatal(err)
	}
	if run.TotalTime >= none.TotalTime {
		t.Errorf("filtered %.1f >= none %.1f via facade", run.TotalTime, none.TotalTime)
	}
}

func TestFacadePolicyConstructors(t *testing.T) {
	for _, pol := range []microslip.Policy{
		microslip.NewFilteredPolicy(4000),
		microslip.NewConservativePolicy(4000),
		microslip.NewGlobalPolicy(4000),
		microslip.NoRemapPolicy(),
	} {
		if pol.Name == "" {
			t.Error("unnamed policy")
		}
	}
	if _, err := microslip.PolicyByName("filtered", 4000); err != nil {
		t.Error(err)
	}
	if _, err := microslip.PolicyByName("nope", 4000); err == nil {
		t.Error("bad policy name accepted")
	}
}

func TestFacadeParallelSolver(t *testing.T) {
	p := microslip.WaterAirChannel(8, 8, 6)
	fields, results, err := microslip.RunParallel(p, 2, microslip.ParallelOptions{Phases: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(fields) != 2 || len(results) != 2 {
		t.Fatalf("facade parallel run returned %d fields, %d results", len(fields), len(results))
	}
	// Compare against the sequential facade run.
	s, err := microslip.NewSim(p)
	if err != nil {
		t.Fatal(err)
	}
	s.Run(3)
	for x := 0; x < p.NX; x++ {
		a := s.Plane(0, x)
		b := fields[0].Plane(x)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("facade parallel diverged at plane %d index %d", x, i)
			}
		}
	}
}

func TestFacadeWorkloads(t *testing.T) {
	if got := len(microslip.Dedicated(7)); got != 7 {
		t.Errorf("Dedicated(7) has %d traces", got)
	}
	traces := microslip.TransientSpikes(10, 2, 100, 3)
	if len(traces) != 10 {
		t.Errorf("TransientSpikes has %d traces", len(traces))
	}
	if idx := microslip.SpreadSlowNodes(20, 1); idx[0] != 10 {
		t.Errorf("SpreadSlowNodes center = %d", idx[0])
	}
	if microslip.PaperSetup().P != 20 {
		t.Error("PaperSetup is not the 20-node configuration")
	}
}
