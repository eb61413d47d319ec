package experiments

import (
	"fmt"
	"strings"

	"microslip/internal/balance"
	"microslip/internal/vcluster"
)

// The ablations probe the design choices Section 3 argues for: the
// harmonic-mean predictor (vs last-value and friends), the
// over-redistribution factor, lazy remapping (interval and history
// length), and the migration threshold.

// AblationRow is one configuration's outcome under the standard
// one-slow-node workload.
type AblationRow struct {
	Name        string
	Time        float64
	PlanesMoved int
	RemapRounds int
}

// AblationResult is a named list of configuration outcomes.
type AblationResult struct {
	Title  string
	Phases int
	Rows   []AblationRow
}

// Table renders the ablation as a table.
func (r *AblationResult) Table() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s (%d phases)\n", r.Title, r.Phases)
	fmt.Fprintf(&sb, "%-24s %12s %14s %12s\n", "configuration", "time (s)", "planes moved", "rounds")
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "%-24s %12.1f %14d %12d\n", row.Name, row.Time, row.PlanesMoved, row.RemapRounds)
	}
	return sb.String()
}

// oneSlowTraces is the shared ablation workload: one fixed slow node at
// the array center plus mild transient spikes elsewhere, which is what
// separates spike-robust predictors from oscillating ones.
func oneSlowTraces(setup ClusterSetup, horizon float64) []vcluster.SpeedTrace {
	traces := vcluster.TransientSpikes(setup.P, 2, horizon, setup.Seed+7)
	slow := setup.P / 2
	traces[slow] = vcluster.Constant(vcluster.ContentionShare(1))
	return traces
}

func (s ClusterSetup) runWith(cfgMod func(*vcluster.Config), pol balance.Policy, traces []vcluster.SpeedTrace, phases int) (*vcluster.Result, error) {
	cfg := vcluster.DefaultConfig(pol, traces, phases)
	cfg.P = s.P
	cfg.TotalPlanes = s.TotalPlanes
	cfg.PlanePoints = s.PlanePoints
	cfg.Seed = s.Seed
	if cfgMod != nil {
		cfgMod(&cfg)
	}
	return vcluster.Run(cfg)
}

// RunAblationPredictors compares phase-time predictors under a
// transient-spike-only workload, where the ideal behaviour is to move
// nothing: any migration is oscillation chasing noise. Section 3.4
// motivates the harmonic mean by exactly this spike robustness.
func RunAblationPredictors(setup ClusterSetup, phases int) (*AblationResult, error) {
	res := &AblationResult{Title: "Ablation: load predictor (2 s transient spikes)", Phases: phases}
	traces := vcluster.TransientSpikes(setup.P, 2, 1e5, setup.Seed+7)
	preds := []struct {
		name string
		mk   func(k int) balance.Predictor
	}{
		{"harmonic (paper)", func(k int) balance.Predictor { return balance.NewHarmonicMean(k) }},
		{"last-value", func(int) balance.Predictor { return balance.NewLastValue() }},
		{"arithmetic mean", func(k int) balance.Predictor { return balance.NewArithmeticMean(k) }},
		{"exp smoothing 0.5", func(int) balance.Predictor { return balance.NewExpSmoothing(0.5) }},
		{"tendency", func(k int) balance.Predictor { return balance.NewTendency(max(k, 2)) }},
	}
	for _, p := range preds {
		mk := p.mk
		r, err := setup.runWith(func(c *vcluster.Config) { c.NewPredictor = mk },
			balance.NewFiltered(setup.PlanePoints), traces, phases)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, AblationRow{
			Name: p.name, Time: r.TotalTime, PlanesMoved: r.PlanesMoved, RemapRounds: r.RemapRounds,
		})
	}
	return res, nil
}

// RunAblationOverRedistribution isolates the kappa scaling: the full
// filtered scheme, kappa disabled (ship the raw delta), conservative
// alpha=2 and alpha=4.
func RunAblationOverRedistribution(setup ClusterSetup, phases int) (*AblationResult, error) {
	res := &AblationResult{Title: "Ablation: over-redistribution", Phases: phases}
	traces := vcluster.FixedSlowNodes(setup.P, []int{setup.P / 2})
	mk := func(name string, mod func(*balance.Config)) (AblationRow, error) {
		pol := balance.NewFiltered(setup.PlanePoints)
		mod(&pol.Cfg)
		r, err := setup.run(pol, traces, phases)
		if err != nil {
			return AblationRow{}, err
		}
		return AblationRow{Name: name, Time: r.TotalTime, PlanesMoved: r.PlanesMoved, RemapRounds: r.RemapRounds}, nil
	}
	rows := []struct {
		name string
		mod  func(*balance.Config)
	}{
		{"kappa = S_recv/S_send", func(c *balance.Config) {}},
		{"kappa off (delta)", func(c *balance.Config) { c.OverRedistribute = false }},
		{"conservative a=2", func(c *balance.Config) { c.OverRedistribute = false; c.Alpha = 2 }},
		{"conservative a=4", func(c *balance.Config) { c.OverRedistribute = false; c.Alpha = 4 }},
	}
	for _, rw := range rows {
		row, err := mk(rw.name, rw.mod)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// RunAblationLaziness sweeps the remapping interval and the history
// window K.
func RunAblationLaziness(setup ClusterSetup, phases int) (*AblationResult, error) {
	res := &AblationResult{Title: "Ablation: lazy remapping (interval / history K)", Phases: phases}
	traces := oneSlowTraces(setup, 1e5)
	for _, interval := range []int{5, 10, 25, 50, 100} {
		pol := balance.NewFiltered(setup.PlanePoints)
		pol.Cfg.Interval = interval
		r, err := setup.run(pol, traces, phases)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, AblationRow{
			Name: fmt.Sprintf("interval %d, K=10", interval),
			Time: r.TotalTime, PlanesMoved: r.PlanesMoved, RemapRounds: r.RemapRounds,
		})
	}
	for _, k := range []int{1, 3, 10, 20} {
		pol := balance.NewFiltered(setup.PlanePoints)
		pol.Cfg.HistoryK = k
		r, err := setup.run(pol, traces, phases)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, AblationRow{
			Name: fmt.Sprintf("interval 25, K=%d", k),
			Time: r.TotalTime, PlanesMoved: r.PlanesMoved, RemapRounds: r.RemapRounds,
		})
	}
	return res, nil
}

// RunAblationThreshold sweeps the migration threshold around the
// paper's one-plane (4,000-point) choice.
func RunAblationThreshold(setup ClusterSetup, phases int) (*AblationResult, error) {
	res := &AblationResult{Title: "Ablation: migration threshold", Phases: phases}
	traces := oneSlowTraces(setup, 1e5)
	for _, mult := range []float64{0, 0.5, 1, 2, 4} {
		pol := balance.NewFiltered(setup.PlanePoints)
		pol.Cfg.ThresholdPoints = int(mult * float64(setup.PlanePoints))
		r, err := setup.run(pol, traces, phases)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, AblationRow{
			Name: fmt.Sprintf("threshold %.1f planes", mult),
			Time: r.TotalTime, PlanesMoved: r.PlanesMoved, RemapRounds: r.RemapRounds,
		})
	}
	return res, nil
}
