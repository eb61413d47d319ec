package balance

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func cfg() Config     { return DefaultConfig(plane) }
func consCfg() Config { return ConservativeConfig(plane) }

func TestConfigValidate(t *testing.T) {
	if err := cfg().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	if err := consCfg().Validate(); err != nil {
		t.Fatalf("conservative config invalid: %v", err)
	}
	bad := []func(*Config){
		func(c *Config) { c.HistoryK = 0 },
		func(c *Config) { c.Interval = 0 },
		func(c *Config) { c.PlanePoints = 0 },
		func(c *Config) { c.ThresholdPoints = -1 },
		func(c *Config) { c.MinKeepPlanes = 0 },
		func(c *Config) { c.Alpha = 0.5 },
		func(c *Config) { c.KappaCap = 0.5 },
	}
	for i, mutate := range bad {
		c := cfg()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestBalancedClusterIsQuiet(t *testing.T) {
	planes := []int{20, 20, 20, 20}
	times := []float64{0.4, 0.4, 0.4, 0.4}
	desires := cfg().DecideAll(planes, times)
	for i, d := range desires {
		if d.ToLeft != 0 || d.ToRight != 0 {
			t.Errorf("node %d wants to move %+v in a balanced cluster", i, d)
		}
	}
}

// A persistently slow node drains aggressively under the filtered
// scheme (over-redistribution), much faster than under conservative
// shipping.
func TestSlowNodeDrains(t *testing.T) {
	planes := []int{20, 20, 20}
	times := []float64{0.4, 1.2, 0.4} // node 1 is 3x slow

	filtered := cfg().DecideAll(planes, times)
	if filtered[1].ToLeft == 0 || filtered[1].ToRight == 0 {
		t.Fatalf("slow node did not shed both ways: %+v", filtered[1])
	}
	shedF := filtered[1].ToLeft + filtered[1].ToRight
	// Full drain to MinKeep, modulo one plane of symmetric-trim rounding.
	if shedF < 20-cfg().MinKeepPlanes-1 {
		t.Errorf("filtered shed %d planes, want near-full drain (>= 18)", shedF)
	}
	// Fast neighbors must not feed the slow node.
	if filtered[0].ToRight != 0 || filtered[2].ToLeft != 0 {
		t.Errorf("fast nodes feeding the slow node: %+v %+v", filtered[0], filtered[2])
	}

	cons := consCfg().DecideAll(planes, times)
	shedC := cons[1].ToLeft + cons[1].ToRight
	if shedC == 0 {
		t.Fatal("conservative shed nothing")
	}
	if shedC >= shedF {
		t.Errorf("conservative shed %d >= filtered %d; over-redistribution has no effect", shedC, shedF)
	}
}

func TestFastToSlowFilterBlocks(t *testing.T) {
	// Node 1 is half speed AND holds fewer planes than its proportional
	// share, so the balance target would move points to it, but the
	// filter forbids feeding a slow node. (Fast nodes: 0.01 s/plane;
	// node 1: 0.02 s/plane.)
	planes := []int{30, 1, 30}
	times := []float64{0.30, 0.02, 0.30}
	desires := cfg().DecideAll(planes, times)
	if desires[0].ToRight != 0 {
		t.Errorf("node 0 ships %d planes to a slower node", desires[0].ToRight)
	}
	if desires[2].ToLeft != 0 {
		t.Errorf("node 2 ships %d planes to a slower node", desires[2].ToLeft)
	}
	// With the filter disabled, the transfer fires (the general
	// load-balancing behaviour the paper argues against).
	open := cfg()
	open.FastToSlowFilter = false
	desires = open.DecideAll(planes, times)
	if desires[0].ToRight == 0 && desires[2].ToLeft == 0 {
		t.Error("disabling the filter still moves nothing; filter test is vacuous")
	}
}

func TestThresholdSuppressesSmallMoves(t *testing.T) {
	// 5% imbalance on equal speeds: target shift is below one plane.
	planes := []int{21, 20, 20}
	times := []float64{0.42, 0.40, 0.40}
	desires := cfg().DecideAll(planes, times)
	for i, d := range desires {
		if d.ToLeft != 0 || d.ToRight != 0 {
			t.Errorf("node %d moved %+v for a sub-threshold imbalance", i, d)
		}
	}
}

func TestDecideNodeUnknownTimes(t *testing.T) {
	w := Window{HasRight: true, Points: 20 * plane, PointsRight: 20 * plane, Time: 0, TimeRight: 0.4}
	l, r := cfg().DecideNode(w)
	if l != 0 || r != 0 {
		t.Errorf("decided %d,%d with no self measurement", l, r)
	}
	w = Window{HasRight: true, Points: 20 * plane, PointsRight: 20 * plane, Time: 2.0, TimeRight: 0}
	l, r = cfg().DecideNode(w)
	if r != 0 {
		t.Errorf("decided to ship %d planes to a neighbor with unknown speed", r)
	}
	_ = l
}

func TestResolveConflict(t *testing.T) {
	desires := []Desire{{ToRight: 5}, {ToLeft: 2}}
	ts := cfg().Resolve(desires, []int{10, 10})
	if len(ts) != 1 || ts[0].From != 0 || ts[0].To != 1 || ts[0].Planes != 3 {
		t.Errorf("conflict resolution produced %+v, want net 3 planes 0->1", ts)
	}
	// Exactly opposite desires cancel entirely.
	desires = []Desire{{ToRight: 4}, {ToLeft: 4}}
	ts = cfg().Resolve(desires, []int{10, 10})
	if len(ts) != 0 {
		t.Errorf("equal opposite desires produced %+v", ts)
	}
}

func TestResolveCapsAtMinKeep(t *testing.T) {
	desires := []Desire{{}, {ToLeft: 4, ToRight: 4}, {}}
	ts := cfg().Resolve(desires, []int{5, 3, 5})
	total := 0
	for _, tr := range ts {
		if tr.From != 1 {
			t.Errorf("unexpected transfer %+v", tr)
		}
		total += tr.Planes
	}
	if total > 2 {
		t.Errorf("node with 3 planes shipped %d, budget is 2", total)
	}
}

// Property: for random cluster states, resolved transfers always apply
// cleanly — planes conserved, every node keeps MinKeepPlanes.
func TestResolvedTransfersAlwaysApply(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := 2 + rng.Intn(10)
		c := cfg()
		if rng.Intn(2) == 0 {
			c = consCfg()
		}
		// A valid cluster state: every node holds at least the floor.
		planes := make([]int, p)
		times := make([]float64, p)
		total := 0
		for i := range planes {
			planes[i] = c.MinKeepPlanes + rng.Intn(40)
			total += planes[i]
			times[i] = 0.1 + rng.Float64()*2
		}
		desires := c.DecideAll(planes, times)
		ts := c.Resolve(desires, planes)
		// Build the matching partition and apply.
		starts := make([]int, p+1)
		for i := 0; i < p; i++ {
			starts[i+1] = starts[i] + planes[i]
		}
		pt := Partition{NX: total, Starts: starts}
		next, err := pt.Apply(ts, c.MinKeepPlanes)
		if err != nil {
			t.Logf("seed %d: apply failed: %v (transfers %+v, planes %v, times %v)", seed, err, ts, planes, times)
			return false
		}
		sum := 0
		for r := 0; r < p; r++ {
			sum += next.Count(r)
		}
		return sum == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: decisions are mirror-symmetric — reversing the array
// reverses the desires.
func TestDecideAllMirrorSymmetry(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := 2 + rng.Intn(8)
		planes := make([]int, p)
		times := make([]float64, p)
		for i := range planes {
			planes[i] = 1 + rng.Intn(40)
			times[i] = 0.1 + rng.Float64()*2
		}
		rev := func(d []Desire) []Desire {
			out := make([]Desire, len(d))
			for i, v := range d {
				out[len(d)-1-i] = Desire{ToLeft: v.ToRight, ToRight: v.ToLeft}
			}
			return out
		}
		planesR := make([]int, p)
		timesR := make([]float64, p)
		for i := 0; i < p; i++ {
			planesR[i] = planes[p-1-i]
			timesR[i] = times[p-1-i]
		}
		a := cfg().DecideAll(planes, times)
		b := rev(cfg().DecideAll(planesR, timesR))
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Iterating decide/resolve/apply rounds from a one-slow-node start must
// converge: the slow node ends near MinKeep and the excess diffuses
// outward, leaving fast nodes roughly even.
func TestFilteredConvergence(t *testing.T) {
	const p = 20
	planes := make([]int, p)
	for i := range planes {
		planes[i] = 20
	}
	compPerPlane := 0.0196 // seconds, calibrated scale (irrelevant here)
	slow := 9
	c := cfg()
	for round := 0; round < 40; round++ {
		times := make([]float64, p)
		for i := range times {
			speed := 1.0
			if i == slow {
				speed = 1.0 / 3.0
			}
			times[i] = float64(planes[i]) * compPerPlane / speed
		}
		ts := c.Resolve(c.DecideAll(planes, times), planes)
		for _, tr := range ts {
			planes[tr.From] -= tr.Planes
			planes[tr.To] += tr.Planes
		}
	}
	if planes[slow] > 2 {
		t.Errorf("slow node still holds %d planes after 40 rounds", planes[slow])
	}
	total, maxP, minP := 0, 0, 1<<30
	for i, n := range planes {
		total += n
		if i == slow {
			continue
		}
		if n > maxP {
			maxP = n
		}
		if n < minP {
			minP = n
		}
	}
	if total != p*20 {
		t.Fatalf("planes not conserved: %d", total)
	}
	if maxP-minP > 5 {
		t.Errorf("fast nodes spread %d..%d; diffusion failed: %v", minP, maxP, planes)
	}
}
