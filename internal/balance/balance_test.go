package balance

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

const plane = 4000 // paper's 200x20 plane

func TestByName(t *testing.T) {
	for _, name := range []string{"none", "noremap", "filtered", "conservative", "global"} {
		p, err := ByName(name, plane)
		if err != nil {
			t.Errorf("ByName(%q): %v", name, err)
			continue
		}
		if want := strings.Replace(name, "noremap", "none", 1); p.Name != want {
			t.Errorf("ByName(%q) built %q", name, p.Name)
		}
		if err := p.Validate(); err != nil {
			t.Errorf("ByName(%q) built an invalid policy: %v", name, err)
		}
	}
	if _, err := ByName("bogus", plane); err == nil {
		t.Error("ByName(bogus) succeeded")
	}
}

func TestAllSchemes(t *testing.T) {
	ps := All(plane)
	if len(ps) != 4 {
		t.Fatalf("All returned %d policies", len(ps))
	}
	names := map[string]bool{}
	for _, p := range ps {
		names[p.Name] = true
	}
	for _, want := range []string{"none", "filtered", "conservative", "global"} {
		if !names[want] {
			t.Errorf("missing scheme %q", want)
		}
	}
}

func TestNoRemapIsInert(t *testing.T) {
	p := NoRemap()
	if ts := p.Round([]int{10, 30}, []float64{1, 9}); ts != nil {
		t.Errorf("NoRemap produced transfers %v", ts)
	}
	if p.Interval() != 0 {
		t.Errorf("NoRemap interval %d", p.Interval())
	}
	// The zero Policy is the same scheme, and a no-remap policy carrying
	// a remapping configuration still never remaps.
	for _, q := range []Policy{{}, {Name: "none", Cfg: DefaultConfig(plane)}} {
		if q.Interval() != 0 || q.HistoryK() != 1 || q.Round([]int{10, 30}, []float64{1, 9}) != nil {
			t.Errorf("%+v remaps", q)
		}
	}
}

func TestGlobalReshapesProportionally(t *testing.T) {
	g := NewGlobal(plane)
	planes := []int{20, 20, 20, 20}
	// Node 2 runs at 1/3 speed.
	predicted := []float64{0.4, 0.4, 1.2, 0.4}
	ts := g.Round(planes, predicted)
	if len(ts) == 0 {
		t.Fatal("global produced no transfers for a slow node")
	}
	next := apply(t, planes, ts)
	if next[2] >= planes[2] {
		t.Errorf("slow node kept %d planes (had 20)", next[2])
	}
	// Proportional share, not a drain: the slow node keeps roughly
	// speed-share of the total (0.333/3.333 * 80 = 8).
	if next[2] < 4 || next[2] > 12 {
		t.Errorf("slow node holds %d planes, want near its proportional share of 8", next[2])
	}
}

func TestGlobalQuietWhenBalanced(t *testing.T) {
	g := NewGlobal(plane)
	ts := g.Round([]int{20, 20, 20}, []float64{0.4, 0.4, 0.4})
	if len(ts) != 0 {
		t.Errorf("balanced global round produced %v", ts)
	}
}

func TestPoliciesQuietWithoutMeasurements(t *testing.T) {
	for _, p := range All(plane) {
		ts := p.Round([]int{20, 20, 20}, []float64{0, 0.4, 0.4})
		if len(ts) != 0 {
			t.Errorf("%s produced transfers with missing measurements: %v", p.Name, ts)
		}
	}
}

func apply(t *testing.T, planes []int, ts []Transfer) []int {
	t.Helper()
	out := append([]int(nil), planes...)
	for _, tr := range ts {
		out[tr.From] -= tr.Planes
		out[tr.To] += tr.Planes
	}
	return out
}

// Property: every policy conserves planes and respects a one-plane
// minimum for arbitrary cluster states.
func TestPoliciesConservePlanes(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := 2 + rng.Intn(12)
		planes := make([]int, p)
		predicted := make([]float64, p)
		total := 0
		for i := range planes {
			planes[i] = 1 + rng.Intn(30)
			total += planes[i]
			predicted[i] = 0.05 + rng.Float64()*2
		}
		for _, pol := range All(plane) {
			ts := pol.Round(planes, predicted)
			next := append([]int(nil), planes...)
			for _, tr := range ts {
				next[tr.From] -= tr.Planes
				next[tr.To] += tr.Planes
			}
			sum := 0
			for i, n := range next {
				sum += n
				if n < 0 {
					t.Logf("%s: node %d negative (%d) planes=%v pred=%v ts=%v", pol.Name, i, n, planes, predicted, ts)
					return false
				}
			}
			if sum != total {
				t.Logf("%s: planes not conserved", pol.Name)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// The filtered scheme converges to a lower makespan estimate than the
// conservative one within few rounds when one node is slow: this is the
// mechanism behind Figure 9.
func TestFilteredBeatsConservativeOnMakespan(t *testing.T) {
	const p = 20
	const compPerPlane = 0.0196
	speeds := make([]float64, p)
	for i := range speeds {
		speeds[i] = 1
	}
	speeds[9] = 1.0 / 3.0

	run := func(pol Policy, rounds int) float64 {
		planes := make([]int, p)
		for i := range planes {
			planes[i] = 20
		}
		var sumMakespan float64
		for r := 0; r < rounds; r++ {
			pred := make([]float64, p)
			worst := 0.0
			for i := range pred {
				pred[i] = float64(planes[i]) * compPerPlane / speeds[i]
				if pred[i] > worst {
					worst = pred[i]
				}
			}
			sumMakespan += worst
			for _, tr := range pol.Round(planes, pred) {
				planes[tr.From] -= tr.Planes
				planes[tr.To] += tr.Planes
			}
		}
		return sumMakespan
	}

	mf := run(NewFiltered(plane), 24)
	mc := run(NewConservative(plane), 24)
	mn := run(NoRemap(), 24)
	if !(mf < mc && mc < mn) {
		t.Errorf("makespan ordering broken: filtered %.2f, conservative %.2f, none %.2f", mf, mc, mn)
	}
}

func TestPolicyMetadata(t *testing.T) {
	cases := []struct {
		p        Policy
		interval int
		history  int
		global   bool
	}{
		{Policy{}, 0, 1, false},
		{NoRemap(), 0, 1, false},
		{NewFiltered(plane), 25, 10, false},
		{NewConservative(plane), 25, 10, false},
		{NewGlobal(plane), 25, 10, true},
	}
	for _, c := range cases {
		if c.p.Interval() != c.interval {
			t.Errorf("%s: Interval %d, want %d", c.p.Name, c.p.Interval(), c.interval)
		}
		if c.p.HistoryK() != c.history {
			t.Errorf("%s: HistoryK %d, want %d", c.p.Name, c.p.HistoryK(), c.history)
		}
		if c.p.Global() != c.global {
			t.Errorf("%s: Global %v, want %v", c.p.Name, c.p.Global(), c.global)
		}
	}
}

// Filtered and conservative differ only in their configuration; global
// reads its interval, window, plane size, kept minimum and threshold
// from the same Config.
func TestPolicyConfigs(t *testing.T) {
	f, c, g := NewFiltered(plane), NewConservative(plane), NewGlobal(plane)
	if f.Cfg != DefaultConfig(plane) || c.Cfg != ConservativeConfig(plane) || g.Cfg != DefaultConfig(plane) {
		t.Errorf("configs: filtered %+v, conservative %+v, global %+v", f.Cfg, c.Cfg, g.Cfg)
	}
	if g.Cfg.ThresholdPoints/g.Cfg.PlanePoints != 1 {
		t.Errorf("global threshold %d planes, want 1", g.Cfg.ThresholdPoints/g.Cfg.PlanePoints)
	}
	f.Name = "conservative"
	f.Cfg = ConservativeConfig(plane)
	if f != c {
		t.Errorf("filtered with the conservative config %+v != conservative %+v", f, c)
	}
}

func TestPolicyValidate(t *testing.T) {
	for _, p := range append(All(plane), Policy{}) {
		if err := p.Validate(); err != nil {
			t.Errorf("%q: %v", p.Name, err)
		}
	}
	// No-remap ignores its configuration.
	if err := (Policy{Name: "none", Cfg: Config{HistoryK: -1}}).Validate(); err != nil {
		t.Errorf("none with a bad config: %v", err)
	}
	if err := (Policy{Name: "bogus", Cfg: DefaultConfig(plane)}).Validate(); err == nil {
		t.Error("unknown scheme accepted")
	}
	bad := map[string]func(*Config){
		"HistoryK=0":      func(c *Config) { c.HistoryK = 0 },
		"PlanePoints=0":   func(c *Config) { c.PlanePoints = 0 },
		"Alpha=0":         func(c *Config) { c.Alpha = 0 },
		"MinKeepPlanes=1": func(c *Config) { c.MinKeepPlanes = 1 },
	}
	for _, p := range All(plane)[1:] {
		for name, mutate := range bad {
			q := p
			mutate(&q.Cfg)
			if err := q.Validate(); err == nil {
				t.Errorf("%s with %s accepted", p.Name, name)
			}
		}
	}
}

func TestGlobalDegenerateInputs(t *testing.T) {
	g := NewGlobal(plane)
	// Fewer planes than MinKeep per node: quiet.
	if ts := g.Round([]int{1, 0}, []float64{0.1, 0.1}); ts != nil {
		t.Errorf("degenerate total produced %v", ts)
	}
}
