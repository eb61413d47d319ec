// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (Section 4), plus the ablation studies and kernel
// microbenchmarks. Each experiment benchmark reports the headline
// quantity of its table/figure via b.ReportMetric, so `go test
// -bench=.` regenerates the paper's numbers alongside timing.
//
// The experiment benchmarks run reduced phase counts (the shapes are
// phase-count independent after the remapping transient); use
// cmd/benchtables for paper-scale sweeps.
package microslip_test

import (
	"testing"

	"microslip/internal/balance"
	"microslip/internal/comm"
	"microslip/internal/experiments"
	"microslip/internal/lattice"
	"microslip/internal/lbm"
	"microslip/internal/parlbm"
	"microslip/internal/vcluster"
)

// --- Evaluation-section benchmarks (one per table/figure) ---

// BenchmarkFig3Disturbance regenerates Figure 3: execution time and
// overhead vs the duty cycle of a competing job on one node.
func BenchmarkFig3Disturbance(b *testing.B) {
	setup := experiments.PaperSetup()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig3(setup, 300, []float64{0, 0.2, 0.4, 0.6, 0.8, 1.0})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Overhead[len(res.Overhead)-1], "overhead_pct_at_full_duty")
	}
}

// BenchmarkFig6DensityProfiles regenerates Figure 6: near-wall water
// depletion and air/vapor enrichment.
func BenchmarkFig6DensityProfiles(b *testing.B) {
	setup := experiments.PhysicsSetup{NX: 12, NY: 32, NZ: 10, Steps: 600, SampleZ: 5}
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunSlipPhysics(setup)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.WaterDensity[0], "water_wall_over_bulk")
		b.ReportMetric(res.AirDensity[0], "air_wall_over_bulk")
	}
}

// BenchmarkFig7VelocityProfiles regenerates Figure 7: the normalized
// streamwise velocity with and without hydrophobic wall forces, and the
// apparent slip.
func BenchmarkFig7VelocityProfiles(b *testing.B) {
	setup := experiments.PhysicsSetup{NX: 12, NY: 32, NZ: 10, Steps: 600, SampleZ: 5}
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunSlipPhysics(setup)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.SlipPercent, "slip_pct")
	}
}

// BenchmarkSpeedupDedicated regenerates the Section 4.2 scaling claim
// (speedup 18.97 on 20 dedicated nodes).
func BenchmarkSpeedupDedicated(b *testing.B) {
	setup := experiments.PaperSetup()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunSpeedupCurve(setup, 300, []int{20})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Speedup[0], "speedup_20_nodes")
	}
}

// BenchmarkFig8SpeedupEfficiency regenerates Figure 8: speedup and
// normalized efficiency vs slow-node count, filtered vs none.
func BenchmarkFig8SpeedupEfficiency(b *testing.B) {
	setup := experiments.PaperSetup()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig8(setup, 2000, 5)
		if err != nil {
			b.Fatal(err)
		}
		last := len(res.M) - 1
		b.ReportMetric(res.SpeedupFilt[last], "speedup_filtered_5_slow")
		b.ReportMetric(res.EffFilt[last], "norm_efficiency_5_slow")
	}
}

// BenchmarkFig9Profiles regenerates Figure 9: the per-scheme execution
// profile with one fixed slow node.
func BenchmarkFig9Profiles(b *testing.B) {
	setup := experiments.PaperSetup()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig9(setup, 600)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Times["filtered"], "filtered_s")
		b.ReportMetric(res.Times["no-remap"], "no_remap_s")
		b.ReportMetric(res.Times["conservative"], "conservative_s")
	}
}

// BenchmarkFig10Schemes regenerates Figure 10: execution time vs
// slow-node count for all four schemes.
func BenchmarkFig10Schemes(b *testing.B) {
	setup := experiments.PaperSetup()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig10(setup, 600, 5)
		if err != nil {
			b.Fatal(err)
		}
		last := len(res.M) - 1
		b.ReportMetric(res.Times["filtered"][last], "filtered_5_slow_s")
		b.ReportMetric(res.Times["global"][last], "global_5_slow_s")
	}
}

// BenchmarkTable1TransientSpikes regenerates Table 1: slowdown under
// random 1-4 s background spikes.
func BenchmarkTable1TransientSpikes(b *testing.B) {
	setup := experiments.PaperSetup()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunTable1(setup, 100, []float64{1, 2, 3, 4})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Slowdown["filtered"][3], "filtered_4s_pct")
		b.ReportMetric(res.Slowdown["global"][3], "global_4s_pct")
	}
}

// --- Ablation benchmarks (design choices of Section 3) ---

func BenchmarkAblationPredictors(b *testing.B) {
	setup := experiments.PaperSetup()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunAblationPredictors(setup, 300)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Rows[0].PlanesMoved), "harmonic_planes_moved")
		b.ReportMetric(float64(res.Rows[1].PlanesMoved), "lastvalue_planes_moved")
	}
}

func BenchmarkAblationOverRedistribution(b *testing.B) {
	setup := experiments.PaperSetup()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunAblationOverRedistribution(setup, 300)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Rows[0].Time, "kappa_on_s")
		b.ReportMetric(res.Rows[2].Time, "conservative_s")
	}
}

func BenchmarkAblationLaziness(b *testing.B) {
	setup := experiments.PaperSetup()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunAblationLaziness(setup, 300); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationThreshold(b *testing.B) {
	setup := experiments.PaperSetup()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunAblationThreshold(setup, 300); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationWallForce sweeps the hydrophobic force amplitude on
// a small 3-D channel (the paper calls its magnitude "not well
// understood").
func BenchmarkAblationWallForce(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunWallForceSensitivity(2, 40, 8, 800,
			[]float64{0.1, 0.2, 0.4}, nil)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Points[1].SlipPercent, "slip_pct_at_amp02")
	}
}

// --- Kernel and substrate microbenchmarks ---

// BenchmarkKernelCollide measures the multicomponent collision kernel
// on one 200x20 plane (the paper's plane size).
func BenchmarkKernelCollide(b *testing.B) {
	p := lbm.WaterAir(4, 200, 20)
	k := lbm.NewKernel(p)
	mk := func() [][]float64 {
		planes := make([][]float64, 2)
		for c := range planes {
			planes[c] = make([]float64, k.PlaneLen())
			k.InitEquilibrium(planes[c], 1.0)
		}
		return planes
	}
	f := mk()
	out := mk()
	n := [][]float64{make([]float64, k.PlaneCells()), make([]float64, k.PlaneCells())}
	k.Densities(f, n)
	sc := k.NewScratch()
	b.SetBytes(int64(2 * k.PlaneLen() * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.CollideScratch(sc, n, n, n, f, out)
	}
}

// BenchmarkKernelStream measures pull streaming on one plane.
func BenchmarkKernelStream(b *testing.B) {
	p := lbm.WaterAir(4, 200, 20)
	k := lbm.NewKernel(p)
	mk := func() [][]float64 {
		planes := make([][]float64, 2)
		for c := range planes {
			planes[c] = make([]float64, k.PlaneLen())
			k.InitEquilibrium(planes[c], 1.0)
		}
		return planes
	}
	f := mk()
	out := mk()
	b.SetBytes(int64(2 * k.PlaneLen() * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Stream(f, f, f, out)
	}
}

// BenchmarkSequentialStep measures a full sequential phase on a small
// channel, in lattice-point updates per second.
func BenchmarkSequentialStep(b *testing.B) {
	p := lbm.WaterAir(16, 40, 12)
	s, err := lbm.NewSim(p)
	if err != nil {
		b.Fatal(err)
	}
	points := p.NX * p.NY * p.NZ
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
	b.ReportMetric(float64(points)*float64(b.N)/b.Elapsed().Seconds(), "points/s")
}

// BenchmarkParallelStep measures the distributed solver (4 ranks,
// in-process transport) per phase.
func BenchmarkParallelStep(b *testing.B) {
	p := lbm.WaterAir(16, 40, 12)
	b.ResetTimer()
	_, _, err := parlbm.RunParallel(p, 4, parlbm.Options{Phases: b.N})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkCommChanExchange measures the neighbor halo-exchange pattern
// on the in-process transport with paper-sized halo planes.
func BenchmarkCommChanExchange(b *testing.B) {
	benchCommExchange(b, func() ([]comm.Comm, func(), error) {
		f := comm.NewFabric(2)
		return f.Endpoints(), f.Close, nil
	})
}

// BenchmarkCommTCPExchange measures the same pattern over TCP loopback.
func BenchmarkCommTCPExchange(b *testing.B) {
	benchCommExchange(b, func() ([]comm.Comm, func(), error) {
		return comm.NewTCPGroup(2)
	})
}

func benchCommExchange(b *testing.B, mk func() ([]comm.Comm, func(), error)) {
	eps, shutdown, err := mk()
	if err != nil {
		b.Fatal(err)
	}
	defer shutdown()
	b.ReportAllocs()
	plane := make([]float64, 200*20*19*2) // paper-sized halo: both components
	b.SetBytes(int64(len(plane) * 8 * 2))
	done := make(chan error, 1)
	b.ResetTimer()
	go func() {
		for i := 0; i < b.N; i++ {
			if _, err := eps[1].SendRecv(0, plane, 0, 1); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for i := 0; i < b.N; i++ {
		if _, err := eps[0].SendRecv(1, plane, 1, 1); err != nil {
			b.Fatal(err)
		}
	}
	if err := <-done; err != nil {
		b.Fatal(err)
	}
}

// BenchmarkFilteredDecide measures the remapping decision math for a
// 20-node array.
func BenchmarkFilteredDecide(b *testing.B) {
	cfg := balance.DefaultConfig(4000)
	planes := make([]int, 20)
	times := make([]float64, 20)
	for i := range planes {
		planes[i] = 20
		times[i] = 0.4
	}
	times[9] = 1.2
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		desires := cfg.DecideAll(planes, times)
		_ = cfg.Resolve(desires, planes)
	}
}

// BenchmarkVClusterRun measures the virtual-cluster simulator itself
// (600 phases, 20 nodes, filtered policy).
func BenchmarkVClusterRun(b *testing.B) {
	traces := vcluster.FixedSlowNodes(20, []int{10})
	for i := 0; i < b.N; i++ {
		cfg := vcluster.DefaultConfig(balance.NewFiltered(4000), traces, 600)
		if _, err := vcluster.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLatticeEquilibrium measures the equilibrium evaluation.
func BenchmarkLatticeEquilibrium(b *testing.B) {
	var feq [lattice.Q19]float64
	for i := 0; i < b.N; i++ {
		lattice.Equilibrium(1.0, 0.01, 0.002, 0.003, &feq)
	}
}
