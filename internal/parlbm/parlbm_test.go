package parlbm

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"microslip/internal/balance"
	"microslip/internal/field"
	"microslip/internal/lbm"
	"microslip/internal/runctl"
)

// sequentialReference runs the sequential solver and returns the full
// per-component distribution fields.
func sequentialReference(t *testing.T, p *lbm.Params, phases int) []*field.Dist3D {
	t.Helper()
	s, err := lbm.NewSim(p)
	if err != nil {
		t.Fatal(err)
	}
	s.Run(phases)
	out := make([]*field.Dist3D, p.NComp())
	for c := 0; c < p.NComp(); c++ {
		out[c] = field.NewDist3D(p.NX, p.NY, p.NZ, 19)
		for x := 0; x < p.NX; x++ {
			copy(out[c].Plane(x), s.Plane(c, x))
		}
	}
	return out
}

func assertFieldsEqual(t *testing.T, want, got []*field.Dist3D, context string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d components vs %d", context, len(got), len(want))
	}
	for c := range want {
		for i, v := range want[c].Data {
			if got[c].Data[i] != v {
				t.Fatalf("%s: component %d diverges at flat index %d: %v != %v",
					context, c, i, got[c].Data[i], v)
			}
		}
	}
}

// The parallel solver must reproduce the sequential solver bit-for-bit
// across rank counts that divide the domain evenly and ones that don't.
func TestParallelMatchesSequential(t *testing.T) {
	p := lbm.WaterAir(12, 10, 6)
	const phases = 9
	want := sequentialReference(t, p, phases)
	for _, ranks := range []int{1, 2, 3, 5} {
		got, _, err := RunParallel(p, ranks, Options{Phases: phases})
		if err != nil {
			t.Fatalf("ranks=%d: %v", ranks, err)
		}
		assertFieldsEqual(t, want, got, "chan transport")
	}
}

func TestParallelMatchesSequentialOverTCP(t *testing.T) {
	p := lbm.WaterAir(8, 8, 6)
	const phases = 5
	want := sequentialReference(t, p, phases)
	got, _, err := RunParallelTCP(p, 4, Options{Phases: phases})
	if err != nil {
		t.Fatal(err)
	}
	assertFieldsEqual(t, want, got, "tcp transport")
}

// slowRankTime builds a synthetic PhaseTime that makes one rank look
// three times slower per plane — driving the remapping machinery
// deterministically.
func slowRankTime(slowRank int) func(rank, planes, phase int) float64 {
	const perPlane = 0.01
	return func(rank, planes, phase int) float64 {
		t := perPlane * float64(planes)
		if rank == slowRank {
			t *= 3
		}
		return t
	}
}

// Live plane migration must not change the physics: a run whose
// partition shifts mid-flight still reproduces the sequential result
// exactly. This is the core correctness property of dynamic remapping.
func TestFilteredRemappingPreservesPhysics(t *testing.T) {
	p := lbm.WaterAir(16, 8, 6)
	const phases = 12
	want := sequentialReference(t, p, phases)

	pol := balance.NewFiltered(p.NY * p.NZ)
	pol.Cfg.Interval = 3
	pol.Cfg.HistoryK = 2
	got, results, err := RunParallel(p, 4, Options{
		Phases:    phases,
		Policy:    pol,
		PhaseTime: slowRankTime(1),
	})
	if err != nil {
		t.Fatal(err)
	}
	assertFieldsEqual(t, want, got, "filtered remapping")

	// The slow rank must actually have shed planes.
	if results[1].FinalCount >= 4 {
		t.Errorf("slow rank still owns %d planes; remapping never fired", results[1].FinalCount)
	}
	moved := 0
	for _, r := range results {
		moved += r.PlanesSent
	}
	if moved == 0 {
		t.Error("no planes migrated")
	}
	// Partition stays a contiguous cover of [0, NX).
	covered := 0
	for _, r := range results {
		covered += r.FinalCount
	}
	if covered != p.NX {
		t.Errorf("final partition covers %d planes, want %d", covered, p.NX)
	}
}

func TestConservativeRemappingPreservesPhysics(t *testing.T) {
	p := lbm.WaterAir(16, 8, 6)
	const phases = 10
	want := sequentialReference(t, p, phases)
	pol := balance.NewConservative(p.NY * p.NZ)
	pol.Cfg.Interval = 4
	pol.Cfg.HistoryK = 2
	got, _, err := RunParallel(p, 4, Options{
		Phases:    phases,
		Policy:    pol,
		PhaseTime: slowRankTime(2),
	})
	if err != nil {
		t.Fatal(err)
	}
	assertFieldsEqual(t, want, got, "conservative remapping")
}

func TestGlobalRemappingPreservesPhysics(t *testing.T) {
	p := lbm.WaterAir(16, 8, 6)
	const phases = 10
	want := sequentialReference(t, p, phases)
	pol := balance.NewGlobal(p.NY * p.NZ)
	pol.Cfg.Interval = 4
	pol.Cfg.HistoryK = 2
	got, results, err := RunParallel(p, 4, Options{
		Phases:    phases,
		Policy:    pol,
		PhaseTime: slowRankTime(1),
	})
	if err != nil {
		t.Fatal(err)
	}
	assertFieldsEqual(t, want, got, "global remapping")
	if results[1].FinalCount >= 4 {
		t.Errorf("global remapping left the slow rank with %d planes", results[1].FinalCount)
	}
}

func TestRemappingWithSlowEdgeRank(t *testing.T) {
	// The chain's end ranks have one neighbor; draining must still work.
	p := lbm.WaterAir(16, 8, 6)
	const phases = 12
	want := sequentialReference(t, p, phases)
	pol := balance.NewFiltered(p.NY * p.NZ)
	pol.Cfg.Interval = 3
	pol.Cfg.HistoryK = 2
	got, results, err := RunParallel(p, 4, Options{
		Phases:    phases,
		Policy:    pol,
		PhaseTime: slowRankTime(0),
	})
	if err != nil {
		t.Fatal(err)
	}
	assertFieldsEqual(t, want, got, "edge-rank remapping")
	if results[0].FinalCount >= 4 {
		t.Errorf("slow edge rank still owns %d planes", results[0].FinalCount)
	}
}

func TestOrderTransfers(t *testing.T) {
	// A relay: rank 1 must receive before it can forward.
	ts := []balance.Transfer{
		{From: 1, To: 2, Planes: 3},
		{From: 0, To: 1, Planes: 3},
	}
	ordered, err := orderTransfers(ts, []int{5, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if ordered[0].From != 0 {
		t.Errorf("relay not reordered: %+v", ordered)
	}
	// An infeasible plan errors out.
	if _, err := orderTransfers([]balance.Transfer{{From: 0, To: 1, Planes: 9}}, []int{5, 5}); err == nil {
		t.Error("infeasible plan accepted")
	}
}

func TestRunRankValidation(t *testing.T) {
	p := lbm.WaterAir(4, 8, 6)
	if _, _, err := RunParallel(p, 2, Options{Phases: 0}); err == nil {
		t.Error("zero phases accepted")
	}
	if _, _, err := RunParallel(p, 8, Options{Phases: 1}); err == nil {
		t.Error("more ranks than planes accepted")
	}
	// Every slab needs MinSlabPlanes planes: 4 planes cannot feed 3 ranks.
	if _, _, err := RunParallel(p, 3, Options{Phases: 1}); err == nil || !strings.Contains(err.Error(), "2 planes each") {
		t.Errorf("NX < 2*ranks: got %v, want the slab-floor error", err)
	}
	bad := lbm.WaterAir(4, 8, 6)
	bad.Components[0].Tau = 0.1
	if _, _, err := RunParallel(bad, 2, Options{Phases: 1}); err == nil {
		t.Error("invalid params accepted")
	}
}

// A plan that would leave a rank below MinSlabPlanes planes fails with
// a typed error naming the rank. Valid policies keep MinKeepPlanes >=
// MinSlabPlanes (a policy keeping one plane is refused up front, see
// TestInvalidPolicyRefused), so the plans here are built by hand.
func TestRemapBelowSlabFloorFails(t *testing.T) {
	counts := []int{4, 4, 4}
	if err := slabFloor(counts, []balance.Transfer{{From: 1, To: 0, Planes: 2}, {From: 2, To: 1, Planes: 2}}); err != nil {
		t.Errorf("plan keeping every rank at the floor refused: %v", err)
	}
	err := slabFloor(counts, []balance.Transfer{{From: 1, To: 0, Planes: 2}, {From: 1, To: 2, Planes: 1}})
	var fe *SlabFloorError
	if !errors.As(err, &fe) {
		t.Fatalf("got %v, want a SlabFloorError", err)
	}
	if fe.Rank != 1 || fe.Planes != 1 {
		t.Errorf("floor error names rank %d with %d planes, want rank 1 with 1", fe.Rank, fe.Planes)
	}
}

// A remapping policy whose configuration is invalid is refused before
// any rank runs a phase, rather than panicking in every rank (HistoryK
// 0), never remapping (PlanePoints 0) or sizing transfers from delta/0
// (Alpha 0).
func TestInvalidPolicyRefused(t *testing.T) {
	p := lbm.WaterAir(16, 8, 6)
	for _, b := range []struct {
		name   string
		mutate func(*balance.Config)
	}{
		{"HistoryK=0", func(c *balance.Config) { c.HistoryK = 0 }},
		{"PlanePoints=0", func(c *balance.Config) { c.PlanePoints = 0 }},
		{"Alpha=0", func(c *balance.Config) { c.Alpha = 0 }},
		{"MinKeepPlanes=1", func(c *balance.Config) { c.MinKeepPlanes = 1 }},
	} {
		t.Run(b.name, func(t *testing.T) {
			pol := balance.NewFiltered(p.NY * p.NZ)
			pol.Cfg.Interval, pol.Cfg.HistoryK = 2, 2
			b.mutate(&pol.Cfg)
			var started atomic.Int64
			_, _, err := RunParallel(p, 4, Options{
				Phases:    12,
				Policy:    pol,
				PhaseTime: slowRankTime(1),
				PhaseHook: func(rank, phase int) { started.Add(1) },
			})
			if err == nil || errors.Is(err, runctl.ErrPanic) {
				t.Fatalf("got %v, want a validation error", err)
			}
			if n := started.Load(); n != 0 {
				t.Errorf("%d rank phases started before the policy was refused", n)
			}
		})
	}
}

// Mass conservation holds across migration: the gathered field carries
// exactly the initial mass.
func TestParallelMassConservation(t *testing.T) {
	p := lbm.WaterAir(16, 8, 6)
	pol := balance.NewFiltered(p.NY * p.NZ)
	pol.Cfg.Interval = 2
	pol.Cfg.HistoryK = 2
	got, _, err := RunParallel(p, 4, Options{
		Phases:    11,
		Policy:    pol,
		PhaseTime: slowRankTime(2),
	})
	if err != nil {
		t.Fatal(err)
	}
	fluid := p.NX * (p.NY - 2) * (p.NZ - 2)
	for c, comp := range p.Components {
		want := comp.InitDensity * float64(fluid)
		gotMass := got[c].TotalMass()
		if diff := gotMass - want; diff > 1e-9*want || diff < -1e-9*want {
			t.Errorf("component %d mass %v, want %v", c, gotMass, want)
		}
	}
}

// DecideNode desires are already budget-capped, so the pairwise netting
// the distributed protocol performs matches balance.Resolve exactly.
func TestPairwiseNettingMatchesResolve(t *testing.T) {
	cfg := balance.DefaultConfig(100)
	planes := []int{10, 30, 5, 25}
	times := []float64{1.0, 0.5, 2.0, 0.5}
	desires := cfg.DecideAll(planes, times)
	want := cfg.Resolve(desires, planes)

	// Pairwise netting as each rank computes it.
	var got []balance.Transfer
	for b := 0; b < len(planes)-1; b++ {
		net := desires[b].ToRight - desires[b+1].ToLeft
		switch {
		case net > 0:
			got = append(got, balance.Transfer{From: b, To: b + 1, Planes: net})
		case net < 0:
			got = append(got, balance.Transfer{From: b + 1, To: b, Planes: -net})
		}
	}
	if len(got) != len(want) {
		t.Fatalf("pairwise netting %+v, Resolve %+v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("transfer %d: %+v != %+v", i, got[i], want[i])
		}
	}
}

// Property: for random cluster states, the distributed pairwise netting
// always equals the centralized Resolve when desires come from
// DecideNode (they are budget-capped at the source).
func TestPairwiseNettingMatchesResolveProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := balance.DefaultConfig(100)
		if rng.Intn(2) == 0 {
			cfg = balance.ConservativeConfig(100)
		}
		p := 2 + rng.Intn(10)
		planes := make([]int, p)
		times := make([]float64, p)
		for i := range planes {
			planes[i] = 1 + rng.Intn(40)
			times[i] = 0.05 + rng.Float64()*2
		}
		desires := cfg.DecideAll(planes, times)
		want := cfg.Resolve(desires, planes)
		var got []balance.Transfer
		for b := 0; b < p-1; b++ {
			net := desires[b].ToRight - desires[b+1].ToLeft
			switch {
			case net > 0:
				got = append(got, balance.Transfer{From: b, To: b + 1, Planes: net})
			case net < 0:
				got = append(got, balance.Transfer{From: b + 1, To: b, Planes: -net})
			}
		}
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Remapping over the TCP transport: the heaviest integration path
// (real sockets + live migration) still matches the sequential solver
// exactly.
func TestFilteredRemappingOverTCP(t *testing.T) {
	p := lbm.WaterAir(12, 8, 6)
	const phases = 8
	want := sequentialReference(t, p, phases)
	pol := balance.NewFiltered(p.NY * p.NZ)
	pol.Cfg.Interval = 3
	pol.Cfg.HistoryK = 2
	got, results, err := RunParallelTCP(p, 3, Options{
		Phases:    phases,
		Policy:    pol,
		PhaseTime: slowRankTime(1),
	})
	if err != nil {
		t.Fatal(err)
	}
	assertFieldsEqual(t, want, got, "tcp remapping")
	if results[1].FinalCount >= 4 {
		t.Errorf("slow rank kept %d planes over TCP", results[1].FinalCount)
	}
}

// Stress: the paper's full 20-rank decomposition with aggressive
// remapping and several emulated slow ranks — draining them down to
// the 2-plane floor — still reproduces the sequential result exactly.
func TestTwentyRankStress(t *testing.T) {
	if testing.Short() {
		t.Skip("20-rank run")
	}
	p := lbm.WaterAir(80, 8, 6)
	const phases = 10
	want := sequentialReference(t, p, phases)
	pol := balance.NewFiltered(p.NY * p.NZ)
	pol.Cfg.Interval = 2
	pol.Cfg.HistoryK = 2
	slow := map[int]bool{3: true, 10: true, 17: true}
	got, results, err := RunParallel(p, 20, Options{
		Phases: phases,
		Policy: pol,
		PhaseTime: func(rank, planes, phase int) float64 {
			v := 0.01 * float64(planes)
			if slow[rank] {
				v *= 3
			}
			return v
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	assertFieldsEqual(t, want, got, "20-rank stress")
	covered := 0
	for _, r := range results {
		covered += r.FinalCount
		if r.FinalCount < MinSlabPlanes {
			t.Errorf("rank %d ended with %d planes", r.Rank, r.FinalCount)
		}
	}
	if covered != p.NX {
		t.Errorf("partition covers %d of %d planes", covered, p.NX)
	}
	for r := range slow {
		if results[r].FinalCount >= 4 {
			t.Errorf("slow rank %d kept %d planes", r, results[r].FinalCount)
		}
	}
}

// Throttle makes a rank genuinely slow in wall-clock time, and the
// time it blocks feeds the remap predictor: the filtered scheme must
// drain the throttled rank's planes onto the others and leave the
// physics untouched. The checks are timing-free — ownership and bits,
// not the wall-clock gain, which machine load would blur (the
// liveremap example and the dist_remap benchmark workload show that).
func TestThrottleRecoveredByRemapping(t *testing.T) {
	if testing.Short() {
		t.Skip("sleeps in real time")
	}
	p := lbm.WaterAir(16, 8, 6)
	const phases, ranks = 40, 4
	throttle := func(rank, planes, phase int) {
		if rank == 1 {
			time.Sleep(time.Duration(planes) * 2 * time.Millisecond)
		}
	}
	run := func(pol balance.Policy) ([]*field.Dist3D, []*Result) {
		got, results, err := RunParallel(p, ranks, Options{Phases: phases, Policy: pol, Throttle: throttle})
		if err != nil {
			t.Fatal(err)
		}
		return got, results
	}
	fpol := balance.NewFiltered(p.NY * p.NZ)
	fpol.Cfg.Interval = 4
	fpol.Cfg.HistoryK = 2
	want, _ := run(balance.Policy{})
	got, results := run(fpol)
	assertFieldsEqual(t, want, got, "throttled filtered run vs unremapped")
	// With the plane total conserved, the planes rank 1 sheds are the
	// ones the other ranks gained.
	total := 0
	for _, r := range results {
		total += r.FinalCount
	}
	if total != p.NX {
		t.Errorf("final ownership covers %d of %d planes", total, p.NX)
	}
	if initial := p.NX / ranks; results[1].FinalCount >= initial {
		t.Errorf("throttled rank 1 ended with %d planes, not fewer than its initial %d", results[1].FinalCount, initial)
	}
}

// RunParallelReduced gathers nothing and still returns what a caller
// reads off the final state: the rank mass shares sum to the sequential
// mass to 1e-12, and exactly one rank — the owner of plane NX/2, which
// remapping moves — returns the mid-channel profile, bit-equal to the
// sequential VelocityProfileY.
func TestRunParallelReducedMassAndProfile(t *testing.T) {
	p := waveParams(16, 12, 6)
	p.BodyForce[0] = 1e-5 // a profile worth comparing
	const phases = 10
	ref, err := lbm.NewSim(p)
	if err != nil {
		t.Fatal(err)
	}
	ref.Run(phases)
	want := ref.VelocityProfileY(p.NX/2, p.NZ/2)

	pol := balance.NewFiltered(p.NY * p.NZ)
	pol.Cfg.Interval, pol.Cfg.HistoryK = 3, 2
	for _, opts := range []Options{
		{Phases: phases},
		{Phases: phases, Policy: pol, PhaseTime: slowRankTime(2)},
	} {
		results, err := RunParallelReduced(p, 4, opts)
		if err != nil {
			t.Fatal(err)
		}
		mass := make([]float64, p.NComp())
		owners := 0
		for _, r := range results {
			if r.Final != nil || r.Comm.Bytes.Gather.SentBytes != 0 || r.Comm.Bytes.Gather.RecvBytes != 0 {
				t.Errorf("rank %d gathered: Final %v, gather bytes %+v", r.Rank, r.Final != nil, r.Comm.Bytes.Gather)
			}
			for c, m := range r.Mass {
				mass[c] += m
			}
			if r.Profile == nil {
				continue
			}
			owners++
			if x := p.NX / 2; x < r.FinalStart || x >= r.FinalStart+r.FinalCount {
				t.Errorf("rank %d owns [%d,%d) but returned the plane-%d profile", r.Rank, r.FinalStart, r.FinalStart+r.FinalCount, x)
			}
			for y := range want {
				if math.Float64bits(r.Profile[y]) != math.Float64bits(want[y]) {
					t.Fatalf("profile y=%d: %v, sequential %v", y, r.Profile[y], want[y])
				}
			}
		}
		if owners != 1 {
			t.Errorf("%d ranks returned a profile, want 1", owners)
		}
		for c := range mass {
			if w := ref.TotalMass(c); math.Abs(mass[c]-w) > 1e-12*w {
				t.Errorf("component %d: summed mass %.17g, sequential %.17g", c, mass[c], w)
			}
		}
	}
}
