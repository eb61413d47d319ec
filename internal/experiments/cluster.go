// Package experiments packages the paper's Section 4 evaluation as
// runnable, parameterized experiments: each function reproduces one
// table or figure and returns a typed result whose Table method renders
// the same rows/series the paper reports. The command benchtables and
// the repository's benchmark harness are thin wrappers around these.
package experiments

import (
	"fmt"
	"math"
	"strings"

	"microslip/internal/balance"
	"microslip/internal/profile"
	"microslip/internal/vcluster"
)

// orNaN adapts a metric inside a table renderer: a degenerate input
// becomes a NaN cell instead of failing the whole render (the drivers
// that build the results propagate the error properly; by render time
// the value is display-only).
func orNaN(v float64, err error) float64 {
	if err != nil {
		return math.NaN()
	}
	return v
}

// ClusterSetup fixes the virtual-cluster parameters shared by the
// performance experiments (the paper's setup: 20 nodes, 400 x 200 x 20
// lattice with slice decomposition, 70% background jobs).
type ClusterSetup struct {
	P           int
	PlanePoints int
	TotalPlanes int
	// BackgroundLoad is the background job's CPU share used in the
	// normalized-efficiency metric (the paper: 0.7).
	BackgroundLoad float64
	Seed           int64
}

// PaperSetup returns the paper's configuration.
func PaperSetup() ClusterSetup {
	return ClusterSetup{P: 20, PlanePoints: 4000, TotalPlanes: 400, BackgroundLoad: 0.7, Seed: 1}
}

func (s ClusterSetup) run(pol balance.Policy, traces []vcluster.SpeedTrace, phases int) (*vcluster.Result, error) {
	cfg := vcluster.DefaultConfig(pol, traces, phases)
	cfg.P = s.P
	cfg.TotalPlanes = s.TotalPlanes
	cfg.PlanePoints = s.PlanePoints
	cfg.Seed = s.Seed
	return vcluster.Run(cfg)
}

// Fig3Result is the disturbance-sensitivity experiment (Figure 3):
// execution time and per-phase overhead versus the duty cycle of a
// competing job on one of the nodes.
type Fig3Result struct {
	Phases    int
	Duty      []float64
	Time      []float64
	Overhead  []float64 // percent vs dedicated
	Dedicated float64
}

// RunFig3 reproduces Figure 3 with the given number of phases (the
// paper uses 600) and duty-cycle grid.
func RunFig3(setup ClusterSetup, phases int, duties []float64) (*Fig3Result, error) {
	res := &Fig3Result{Phases: phases, Duty: duties}
	ded, err := setup.run(balance.NoRemap(), vcluster.Dedicated(setup.P), phases)
	if err != nil {
		return nil, err
	}
	res.Dedicated = ded.TotalTime
	node := setup.P / 2
	for _, d := range duties {
		r, err := setup.run(balance.NoRemap(), vcluster.DutyCycleNode(setup.P, node, d), phases)
		if err != nil {
			return nil, err
		}
		res.Time = append(res.Time, r.TotalTime)
		ovh, err := OverheadPercent(r.TotalTime, res.Dedicated)
		if err != nil {
			return nil, err
		}
		res.Overhead = append(res.Overhead, ovh)
	}
	return res, nil
}

// Table renders the two panels of Figure 3 as columns.
func (r *Fig3Result) Table() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Figure 3: competing-job disturbance on one of %d nodes, %d phases\n", 20, r.Phases)
	fmt.Fprintf(&sb, "%12s %16s %14s\n", "disturbance", "exec time (s)", "overhead (%)")
	for i := range r.Duty {
		fmt.Fprintf(&sb, "%11.0f%% %16.1f %14.1f\n", 100*r.Duty[i], r.Time[i], r.Overhead[i])
	}
	return sb.String()
}

// Fig8Result is speedup and normalized efficiency versus the number of
// fixed slow nodes, filtered remapping vs no remapping (Figure 8).
type Fig8Result struct {
	Phases                 int
	M                      []int
	SpeedupFilt, SpeedupNo []float64
	EffFilt, EffNo         []float64
	Load                   float64
	P                      int
}

// RunFig8 reproduces Figure 8 (the paper uses 20,000 phases).
func RunFig8(setup ClusterSetup, phases int, maxSlow int) (*Fig8Result, error) {
	res := &Fig8Result{Phases: phases, Load: setup.BackgroundLoad, P: setup.P}
	for m := 0; m <= maxSlow; m++ {
		traces := vcluster.FixedSlowNodes(setup.P, vcluster.SpreadSlowNodes(setup.P, m))
		filt, err := setup.run(balance.NewFiltered(setup.PlanePoints), traces, phases)
		if err != nil {
			return nil, err
		}
		none, err := setup.run(balance.NoRemap(), traces, phases)
		if err != nil {
			return nil, err
		}
		effFilt, err := NormalizedEfficiency(filt.Speedup(), setup.P, m, setup.BackgroundLoad)
		if err != nil {
			return nil, err
		}
		effNo, err := NormalizedEfficiency(none.Speedup(), setup.P, m, setup.BackgroundLoad)
		if err != nil {
			return nil, err
		}
		res.M = append(res.M, m)
		res.SpeedupFilt = append(res.SpeedupFilt, filt.Speedup())
		res.SpeedupNo = append(res.SpeedupNo, none.Speedup())
		res.EffFilt = append(res.EffFilt, effFilt)
		res.EffNo = append(res.EffNo, effNo)
	}
	return res, nil
}

// Table renders Figure 8's two panels.
func (r *Fig8Result) Table() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Figure 8: speedup and normalized efficiency vs slow nodes, %d phases, %d nodes\n", r.Phases, r.P)
	fmt.Fprintf(&sb, "%8s %18s %18s %14s %14s\n", "# slow", "speedup(remap)", "speedup(none)", "eff(remap)", "eff(none)")
	for i, m := range r.M {
		fmt.Fprintf(&sb, "%8d %18.2f %18.2f %14.2f %14.2f\n",
			m, r.SpeedupFilt[i], r.SpeedupNo[i], r.EffFilt[i], r.EffNo[i])
	}
	return sb.String()
}

// Fig9Result is the per-scheme execution profile with one fixed slow
// node (Figure 9).
type Fig9Result struct {
	Phases   int
	SlowNode int
	Schemes  []string
	Times    map[string]float64
	Profiles map[string]*profile.Profile
	// SlowNodePlanes is the slow node's final plane count per scheme.
	SlowNodePlanes map[string]int
}

// RunFig9 reproduces Figure 9: dedicated, no-remapping, conservative
// and filtered profiles over 600 phases with node P/2 slow.
func RunFig9(setup ClusterSetup, phases int) (*Fig9Result, error) {
	slowNode := setup.P / 2
	res := &Fig9Result{
		Phases: phases, SlowNode: slowNode,
		Schemes:        []string{"dedicated", "no-remap", "conservative", "filtered"},
		Times:          map[string]float64{},
		Profiles:       map[string]*profile.Profile{},
		SlowNodePlanes: map[string]int{},
	}
	slow := vcluster.FixedSlowNodes(setup.P, []int{slowNode})
	runs := []struct {
		name   string
		pol    balance.Policy
		traces []vcluster.SpeedTrace
	}{
		{"dedicated", balance.NoRemap(), vcluster.Dedicated(setup.P)},
		{"no-remap", balance.NoRemap(), slow},
		{"conservative", balance.NewConservative(setup.PlanePoints), slow},
		{"filtered", balance.NewFiltered(setup.PlanePoints), slow},
	}
	for _, rn := range runs {
		r, err := setup.run(rn.pol, rn.traces, phases)
		if err != nil {
			return nil, err
		}
		res.Times[rn.name] = r.TotalTime
		res.Profiles[rn.name] = r.Profile
		res.SlowNodePlanes[rn.name] = r.FinalPartition.Count(slowNode)
	}
	return res, nil
}

// Table renders the scheme totals and per-node breakdowns.
func (r *Fig9Result) Table() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Figure 9: execution profile with node %d slow, %d phases\n", r.SlowNode, r.Phases)
	ded := r.Times["dedicated"]
	for _, s := range r.Schemes {
		fmt.Fprintf(&sb, "%-14s %8.1f s  (+%5.1f%%)  slow-node planes: %d\n",
			s, r.Times[s], orNaN(OverheadPercent(r.Times[s], ded)), r.SlowNodePlanes[s])
	}
	for _, s := range r.Schemes {
		fmt.Fprintf(&sb, "\n--- %s ---\n%s", s, r.Profiles[s].String())
	}
	return sb.String()
}

// Fig10Result is execution time versus slow-node count for the four
// schemes (Figure 10).
type Fig10Result struct {
	Phases  int
	M       []int
	Schemes []string
	Times   map[string][]float64
}

// RunFig10 reproduces Figure 10 over 600 phases.
func RunFig10(setup ClusterSetup, phases int, maxSlow int) (*Fig10Result, error) {
	res := &Fig10Result{Phases: phases, Times: map[string][]float64{}}
	pols := balance.All(setup.PlanePoints)
	for _, p := range pols {
		res.Schemes = append(res.Schemes, p.Name)
	}
	for m := 0; m <= maxSlow; m++ {
		res.M = append(res.M, m)
		traces := vcluster.FixedSlowNodes(setup.P, vcluster.SpreadSlowNodes(setup.P, m))
		for _, pol := range pols {
			r, err := setup.run(pol, traces, phases)
			if err != nil {
				return nil, err
			}
			res.Times[pol.Name] = append(res.Times[pol.Name], r.TotalTime)
		}
	}
	return res, nil
}

// Table renders Figure 10's series.
func (r *Fig10Result) Table() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Figure 10: execution time (s) vs slow nodes, %d phases\n", r.Phases)
	fmt.Fprintf(&sb, "%8s", "# slow")
	for _, s := range r.Schemes {
		fmt.Fprintf(&sb, " %14s", s)
	}
	sb.WriteByte('\n')
	for i, m := range r.M {
		fmt.Fprintf(&sb, "%8d", m)
		for _, s := range r.Schemes {
			fmt.Fprintf(&sb, " %14.1f", r.Times[s][i])
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// Table1Result is the transient-spike tolerance comparison (Table 1).
type Table1Result struct {
	Phases    int
	SpikeLens []float64
	Schemes   []string
	// Slowdown[scheme][i] is the percent slowdown vs dedicated for
	// SpikeLens[i].
	Slowdown  map[string][]float64
	Dedicated float64
}

// RunTable1 reproduces Table 1: random 70% background jobs of 1-4 s on
// a random node every 10 s, 100 phases.
func RunTable1(setup ClusterSetup, phases int, spikeLens []float64) (*Table1Result, error) {
	ded, err := setup.run(balance.NoRemap(), vcluster.Dedicated(setup.P), phases)
	if err != nil {
		return nil, err
	}
	res := &Table1Result{
		Phases: phases, SpikeLens: spikeLens,
		Slowdown: map[string][]float64{}, Dedicated: ded.TotalTime,
	}
	pols := []balance.Policy{
		balance.NoRemap(), balance.NewGlobal(setup.PlanePoints),
		balance.NewFiltered(setup.PlanePoints), balance.NewConservative(setup.PlanePoints),
	}
	for _, p := range pols {
		res.Schemes = append(res.Schemes, p.Name)
	}
	horizon := ded.TotalTime * 12 // generously covers the slowed run
	for _, l := range spikeLens {
		traces := vcluster.TransientSpikes(setup.P, l, horizon, setup.Seed+42)
		for _, pol := range pols {
			r, err := setup.run(pol, traces, phases)
			if err != nil {
				return nil, err
			}
			ovh, err := OverheadPercent(r.TotalTime, ded.TotalTime)
			if err != nil {
				return nil, err
			}
			res.Slowdown[pol.Name] = append(res.Slowdown[pol.Name], ovh)
		}
	}
	return res, nil
}

// Table renders Table 1.
func (r *Table1Result) Table() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Table 1: slowdown vs dedicated under transient spikes, %d phases\n", r.Phases)
	fmt.Fprintf(&sb, "%10s", "spike")
	for _, s := range r.Schemes {
		fmt.Fprintf(&sb, " %14s", s)
	}
	sb.WriteByte('\n')
	for i, l := range r.SpikeLens {
		fmt.Fprintf(&sb, "%8.0f s", l)
		for _, s := range r.Schemes {
			fmt.Fprintf(&sb, " %13.1f%%", r.Slowdown[s][i])
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// SpeedupCurveResult is the dedicated-cluster scaling check behind the
// paper's "speedup is 18.97 with 20 nodes" claim.
type SpeedupCurveResult struct {
	Phases  int
	P       []int
	Speedup []float64
}

// RunSpeedupCurve measures dedicated speedup for each node count.
func RunSpeedupCurve(setup ClusterSetup, phases int, nodeCounts []int) (*SpeedupCurveResult, error) {
	res := &SpeedupCurveResult{Phases: phases}
	for _, p := range nodeCounts {
		s := setup
		s.P = p
		r, err := s.run(balance.NoRemap(), vcluster.Dedicated(p), phases)
		if err != nil {
			return nil, err
		}
		res.P = append(res.P, p)
		res.Speedup = append(res.Speedup, r.Speedup())
	}
	return res, nil
}

// Table renders the scaling curve.
func (r *SpeedupCurveResult) Table() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Dedicated-cluster speedup (Section 4.2), %d phases\n", r.Phases)
	fmt.Fprintf(&sb, "%8s %12s %12s\n", "nodes", "speedup", "efficiency")
	for i, p := range r.P {
		fmt.Fprintf(&sb, "%8d %12.2f %12.2f\n", p, r.Speedup[i], r.Speedup[i]/float64(p))
	}
	return sb.String()
}
