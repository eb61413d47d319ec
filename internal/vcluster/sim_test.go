package vcluster

import (
	"math"
	"testing"

	"microslip/internal/balance"
)

func mustRun(t *testing.T, cfg Config) *Result {
	t.Helper()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestConfigValidation(t *testing.T) {
	good := DefaultConfig(balance.NoRemap(), Dedicated(4), 10)
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []func(*Config){
		func(c *Config) { c.P = 0 },
		func(c *Config) { c.Traces = c.Traces[:2] },
		func(c *Config) { c.TotalPlanes = 2 },
		func(c *Config) { c.PlanePoints = 0 },
		func(c *Config) { c.Phases = 0 },
		func(c *Config) { c.Policy = balance.Policy{} },
		func(c *Config) { c.WakeDelay = -1 },
		func(c *Config) { c.Costs.CompPerPoint = 0 },
		func(c *Config) { c.CheckpointInterval = -1 },
	}
	for i, mutate := range bad {
		c := DefaultConfig(balance.NoRemap(), Dedicated(4), 10)
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

// A remapping policy whose configuration is invalid is refused before
// the run starts, rather than panicking out of Run (HistoryK 0), never
// remapping (PlanePoints 0) or sizing transfers from delta/0 (Alpha 0).
func TestInvalidPolicyRefused(t *testing.T) {
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
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("Run panicked: %v", r)
				}
			}()
			pol := balance.NewFiltered(4000)
			b.mutate(&pol.Cfg)
			cfg := DefaultConfig(pol, FixedSlowNodes(4, []int{1}), 100)
			cfg.TotalPlanes = 40
			res, err := Run(cfg)
			if err == nil || res != nil {
				t.Fatalf("got result %v, error %v; want a validation error and no run", res != nil, err)
			}
		})
	}
}

// Calibration anchors from the paper (Section 4.2): dedicated 20-node
// 600-phase run ~251 s with speedup ~19; one fixed slow node without
// remapping ~717 s (+185.6%).
func TestCalibrationAnchors(t *testing.T) {
	ded := mustRun(t, DefaultConfig(balance.NoRemap(), Dedicated(20), 600))
	if ded.TotalTime < 240 || ded.TotalTime > 270 {
		t.Errorf("dedicated run %.1f s, want ~251 s", ded.TotalTime)
	}
	if s := ded.Speedup(); s < 18 || s > 19.5 {
		t.Errorf("dedicated speedup %.2f, want ~18.97", s)
	}
	slow := mustRun(t, DefaultConfig(balance.NoRemap(), FixedSlowNodes(20, []int{9}), 600))
	if slow.TotalTime < 650 || slow.TotalTime > 800 {
		t.Errorf("one-slow-node no-remap run %.1f s, want ~717 s", slow.TotalTime)
	}
	over := (slow.TotalTime - ded.TotalTime) / ded.TotalTime
	if over < 1.5 || over > 2.2 {
		t.Errorf("slow-node overhead %.0f%%, want ~185%%", 100*over)
	}
}

// The Figure 9 ordering: dedicated < filtered < conservative < none,
// with filtered cutting the slow-node penalty by more than half.
func TestFig9Ordering(t *testing.T) {
	slow := FixedSlowNodes(20, []int{9})
	ded := mustRun(t, DefaultConfig(balance.NoRemap(), Dedicated(20), 600))
	none := mustRun(t, DefaultConfig(balance.NoRemap(), slow, 600))
	filt := mustRun(t, DefaultConfig(balance.NewFiltered(4000), slow, 600))
	cons := mustRun(t, DefaultConfig(balance.NewConservative(4000), slow, 600))

	if !(ded.TotalTime < filt.TotalTime && filt.TotalTime < cons.TotalTime && cons.TotalTime < none.TotalTime) {
		t.Errorf("ordering broken: ded %.1f filt %.1f cons %.1f none %.1f",
			ded.TotalTime, filt.TotalTime, cons.TotalTime, none.TotalTime)
	}
	// Filtered reduces no-remapping time by > 50% (paper: 56.3%).
	if red := (none.TotalTime - filt.TotalTime) / none.TotalTime; red < 0.45 {
		t.Errorf("filtered reduced no-remap by only %.0f%%, paper reports 56.3%%", 100*red)
	}
	// The filtered scheme drains the slow node to (near) the minimum.
	if got := filt.FinalPartition.Count(9); got > 3 {
		t.Errorf("slow node still holds %d planes under filtered remapping", got)
	}
	// Conservative keeps the slow node near its proportional share.
	if got := cons.FinalPartition.Count(9); got < 4 || got > 12 {
		t.Errorf("conservative left slow node with %d planes, want near 7", got)
	}
}

func TestProfileAccountsAllTime(t *testing.T) {
	slow := FixedSlowNodes(20, []int{9})
	res := mustRun(t, DefaultConfig(balance.NewFiltered(4000), slow, 200))
	for i, b := range res.Profile.Nodes {
		if b.Total() > res.TotalTime+1e-6 {
			t.Errorf("node %d accounted %.2f s > makespan %.2f s", i, b.Total(), res.TotalTime)
		}
		if b.Total() < 0.5*res.TotalTime {
			t.Errorf("node %d accounted only %.2f of %.2f s", i, b.Total(), res.TotalTime)
		}
		if b.Computation <= 0 || b.Communication <= 0 {
			t.Errorf("node %d missing breakdown: %+v", i, b)
		}
	}
	// The slow node's computation share shrinks after draining; its
	// communication (wait) share dominates — the Figure 9 signature.
	b9 := res.Profile.Nodes[9]
	if b9.Communication < b9.Computation {
		t.Errorf("drained slow node: comm %.1f < comp %.1f; expected wait-dominated", b9.Communication, b9.Computation)
	}
}

func TestPlanesConservedThroughRun(t *testing.T) {
	for _, pol := range balance.All(4000) {
		res := mustRun(t, DefaultConfig(pol, FixedSlowNodes(20, []int{4, 12}), 300))
		sum := 0
		for r := 0; r < 20; r++ {
			c := res.FinalPartition.Count(r)
			if c < 1 {
				t.Errorf("%s: node %d ended with %d planes", pol.Name, r, c)
			}
			sum += c
		}
		if sum != 400 {
			t.Errorf("%s: %d planes at end, want 400", pol.Name, sum)
		}
	}
}

func TestDeterminism(t *testing.T) {
	cfg := DefaultConfig(balance.NewFiltered(4000), FixedSlowNodes(20, []int{9}), 150)
	a := mustRun(t, cfg)
	b := mustRun(t, cfg)
	if a.TotalTime != b.TotalTime || a.PlanesMoved != b.PlanesMoved {
		t.Errorf("same config diverged: %.6f/%d vs %.6f/%d",
			a.TotalTime, a.PlanesMoved, b.TotalTime, b.PlanesMoved)
	}
	cfg.Seed = 99
	c := mustRun(t, cfg)
	if c.TotalTime == a.TotalTime {
		t.Error("different seeds produced identical makespans; jitter inert")
	}
	if math.Abs(c.TotalTime-a.TotalTime) > 0.1*a.TotalTime {
		t.Errorf("seed changed makespan by >10%%: %.1f vs %.1f", a.TotalTime, c.TotalTime)
	}
}

func TestNoRemapNeverMoves(t *testing.T) {
	res := mustRun(t, DefaultConfig(balance.NoRemap(), FixedSlowNodes(20, []int{9}), 300))
	if res.PlanesMoved != 0 || res.RemapRounds != 0 {
		t.Errorf("no-remap moved %d planes in %d rounds", res.PlanesMoved, res.RemapRounds)
	}
	for r := 0; r < 20; r++ {
		if res.FinalPartition.Count(r) != 20 {
			t.Errorf("no-remap changed node %d to %d planes", r, res.FinalPartition.Count(r))
		}
	}
}

// Figure 3's two regimes: overhead grows near-linearly below 60% duty
// and sharply after.
func TestFig3Knee(t *testing.T) {
	at := func(duty float64) float64 {
		res := mustRun(t, DefaultConfig(balance.NoRemap(), DutyCycleNode(20, 9, duty), 600))
		return res.TotalTime
	}
	t0 := at(0)
	t06 := at(0.6)
	t10 := at(1.0)
	lowSlope := (t06 - t0) / 0.6
	highSlope := (t10 - t06) / 0.4
	if highSlope < 2*lowSlope {
		t.Errorf("no knee: slope below 60%% %.0f s/duty, above %.0f s/duty", lowSlope, highSlope)
	}
	if over := (t10 - t0) / t0; over < 1.4 || over > 2.3 {
		t.Errorf("full-duty overhead %.0f%%, want ~185%%", 100*over)
	}
	// Monotone in duty.
	prev := t0
	for _, d := range []float64{0.2, 0.4, 0.6, 0.8, 1.0} {
		cur := at(d)
		if cur < prev-1 {
			t.Errorf("execution time not monotone at duty %.1f: %.1f < %.1f", d, cur, prev)
		}
		prev = cur
	}
}

// Figure 8's headline: with up to 5 slow nodes the filtered scheme keeps
// speedup high while no-remapping collapses.
func TestFig8SpeedupShape(t *testing.T) {
	if testing.Short() {
		t.Skip("20,000-phase runs")
	}
	slow := SpreadSlowNodes(20, 5)
	filt := mustRun(t, DefaultConfig(balance.NewFiltered(4000), FixedSlowNodes(20, slow), 20000))
	none := mustRun(t, DefaultConfig(balance.NoRemap(), FixedSlowNodes(20, slow), 20000))
	if s := filt.Speedup(); s < 11 || s > 16 {
		t.Errorf("filtered speedup with 5 slow nodes %.2f, paper reports ~13", s)
	}
	if s := none.Speedup(); s > 8 {
		t.Errorf("no-remap speedup with 5 slow nodes %.2f, should collapse below 8", s)
	}
}

// Global remapping pays for collectives and keeps slow nodes loaded; it
// must fall behind filtered once several nodes are slow (Figure 10).
func TestGlobalDegradesWithManySlowNodes(t *testing.T) {
	slow3 := FixedSlowNodes(20, SpreadSlowNodes(20, 3))
	filt := mustRun(t, DefaultConfig(balance.NewFiltered(4000), slow3, 600))
	glob := mustRun(t, DefaultConfig(balance.NewGlobal(4000), slow3, 600))
	if glob.TotalTime <= filt.TotalTime {
		t.Errorf("global %.1f s <= filtered %.1f s with 3 slow nodes", glob.TotalTime, filt.TotalTime)
	}
	// Global churns far more data than the lazy local schemes.
	if glob.PlanesMoved <= filt.PlanesMoved {
		t.Errorf("global moved %d planes <= filtered %d", glob.PlanesMoved, filt.PlanesMoved)
	}
}

// Transient spikes (Table 1): the lazy schemes tolerate them nearly as
// well as no-remapping; slowdown grows with spike length.
func TestTable1SpikeTolerance(t *testing.T) {
	ded := mustRun(t, DefaultConfig(balance.NoRemap(), Dedicated(20), 100))
	slowdown := func(pol balance.Policy, spikeLen float64) float64 {
		res := mustRun(t, DefaultConfig(pol, TransientSpikes(20, spikeLen, 600, 42), 100))
		return (res.TotalTime - ded.TotalTime) / ded.TotalTime
	}
	prev := -1.0
	for _, l := range []float64{1, 2, 3, 4} {
		s := slowdown(balance.NewFiltered(4000), l)
		if s < prev {
			t.Errorf("filtered slowdown not increasing with spike length at %v s", l)
		}
		prev = s
	}
	// Filtered's lazy remapping keeps it close to no-remapping: within
	// 12 percentage points at 4 s spikes (paper: 38.1% vs 35.6%).
	sn := slowdown(balance.NoRemap(), 4)
	sf := slowdown(balance.NewFiltered(4000), 4)
	if sf-sn > 0.12 {
		t.Errorf("filtered %.1f%% vs none %.1f%% under spikes; lazy remapping failed", 100*sf, 100*sn)
	}
}

// The coalesced cost knob: the defaults reproduce the calibrated
// two-exchanges-per-phase wire cost exactly (so the paper anchors above
// are untouched), and coalescing halves the handling work, which
// shortens a communication-bound virtual run.
func TestHaloCostKnobs(t *testing.T) {
	c := DefaultCosts()
	if got, want := c.PhaseExchangeWire(), 2*c.ExchangeWire; math.Abs(got-want) > 1e-15 {
		t.Errorf("default phase wire %v, want %v", got, want)
	}
	if got, want := c.PhaseHandlingWork(), 2*c.MsgHandlingWork; got != want {
		t.Errorf("default phase handling %v, want %v", got, want)
	}
	c.CoalescedHalo = true
	if got, want := c.PhaseHandlingWork(), c.MsgHandlingWork; got != want {
		t.Errorf("coalesced phase handling %v, want %v", got, want)
	}
	if c.Validate() != nil {
		t.Errorf("coalesced costs should validate: %v", c.Validate())
	}

	two := DefaultConfig(balance.NoRemap(), Dedicated(20), 600)
	one := DefaultConfig(balance.NoRemap(), Dedicated(20), 600)
	one.Costs.CoalescedHalo = true
	twoRes, oneRes := mustRun(t, two), mustRun(t, one)
	if oneRes.TotalTime >= twoRes.TotalTime {
		t.Errorf("coalesced run %.1f s not faster than two-exchange %.1f s",
			oneRes.TotalTime, twoRes.TotalTime)
	}
}

// TestCheckpointIntervalChargesCheckpointTime: periodic coordinated
// checkpoints must cost wall time and show up in the profile's
// checkpoint column — and nowhere else.
func TestCheckpointIntervalChargesCheckpointTime(t *testing.T) {
	clean := mustRun(t, DefaultConfig(balance.NoRemap(), Dedicated(6), 60))
	cfg := DefaultConfig(balance.NoRemap(), Dedicated(6), 60)
	cfg.CheckpointInterval = 10
	ck := mustRun(t, cfg)

	if ck.Profile.Sum().Checkpoint <= 0 {
		t.Fatal("checkpointing charged no checkpoint time")
	}
	if clean.Profile.Sum().Checkpoint != 0 {
		t.Fatal("run without checkpointing charged checkpoint time")
	}
	if ck.TotalTime <= clean.TotalTime {
		t.Errorf("checkpointed run %.3f s not slower than clean %.3f s", ck.TotalTime, clean.TotalTime)
	}
	if comp, want := ck.Profile.Sum().Computation, clean.Profile.Sum().Computation; comp != want {
		t.Errorf("checkpointing changed computation time %v -> %v", want, comp)
	}
}
