// Package balance defines the remapping-policy interface shared by the
// distributed runner (parlbm) and the virtual-cluster simulator
// (vcluster), plus the four schemes the paper evaluates: no-remapping,
// conservative redistribution, global remapping, and the paper's
// filtered dynamic remapping (implemented in package core).
package balance

import (
	"fmt"

	"microslip/internal/core"
	"microslip/internal/decomp"
)

// Policy decides lattice-plane transfers at a remapping round from the
// per-node plane counts and predicted next-phase times. Policies are
// pure decision logic; measurement, prediction state, and data movement
// belong to the runner.
type Policy interface {
	// Name identifies the scheme ("none", "filtered", "conservative",
	// "global").
	Name() string
	// Interval returns the number of phases between remapping rounds,
	// or 0 if the policy never remaps.
	Interval() int
	// HistoryK returns the predictor window length the runner should
	// use.
	HistoryK() int
	// Global reports whether the round requires all-node information
	// exchange (the runner charges collective-communication cost).
	Global() bool
	// Round computes executable neighbor transfers. predicted[i] <= 0
	// means node i has no measurement yet; policies keep quiet then.
	Round(planes []int, predicted []float64) []decomp.Transfer
}

// NoRemap is the static-decomposition baseline.
type NoRemap struct{}

func (NoRemap) Name() string                             { return "none" }
func (NoRemap) Interval() int                            { return 0 }
func (NoRemap) HistoryK() int                            { return 1 }
func (NoRemap) Global() bool                             { return false }
func (NoRemap) Round([]int, []float64) []decomp.Transfer { return nil }

// Filtered is the paper's scheme: local exchange, lazy filters, and
// over-redistribution from confirmed-slow nodes.
type Filtered struct{ Cfg core.Config }

// NewFiltered builds the filtered policy with the default configuration
// for the given plane size.
func NewFiltered(planePoints int) Filtered {
	return Filtered{Cfg: core.DefaultConfig(planePoints)}
}

func (f Filtered) Name() string  { return "filtered" }
func (f Filtered) Interval() int { return f.Cfg.Interval }
func (f Filtered) HistoryK() int { return f.Cfg.HistoryK }
func (f Filtered) Global() bool  { return false }

func (f Filtered) Round(planes []int, predicted []float64) []decomp.Transfer {
	return f.Cfg.Resolve(f.Cfg.DecideAll(planes, predicted), planes)
}

// Conservative is the classic cautious local scheme: identical lazy
// machinery but ships delta/alpha instead of over-redistributing.
type Conservative struct{ Cfg core.Config }

// NewConservative builds the conservative policy (alpha = 2).
func NewConservative(planePoints int) Conservative {
	return Conservative{Cfg: core.ConservativeConfig(planePoints)}
}

func (c Conservative) Name() string  { return "conservative" }
func (c Conservative) Interval() int { return c.Cfg.Interval }
func (c Conservative) HistoryK() int { return c.Cfg.HistoryK }
func (c Conservative) Global() bool  { return false }

func (c Conservative) Round(planes []int, predicted []float64) []decomp.Transfer {
	return c.Cfg.Resolve(c.Cfg.DecideAll(planes, predicted), planes)
}

// Global gathers all nodes' load indices and reshapes the partition so
// every node's plane count is proportional to its predicted speed. It
// keeps lazy remapping (harmonic prediction, threshold) but not
// over-redistribution, matching Section 4.2.3: slow nodes retain their
// proportional share, and every round pays a collective exchange.
type Global struct {
	// Interval_, HistoryK_, MinKeep and ThresholdPlanes mirror the
	// filtered defaults so comparisons isolate the information-exchange
	// strategy.
	Interval_, HistoryK_            int
	MinKeep, ThresholdPlanes, Plane int
}

// NewGlobal builds the global policy with defaults aligned to the
// filtered configuration.
func NewGlobal(planePoints int) Global {
	d := core.DefaultConfig(planePoints)
	return Global{
		Interval_: d.Interval, HistoryK_: d.HistoryK,
		MinKeep: d.MinKeepPlanes, ThresholdPlanes: 1, Plane: planePoints,
	}
}

func (g Global) Name() string  { return "global" }
func (g Global) Interval() int { return g.Interval_ }
func (g Global) HistoryK() int { return g.HistoryK_ }
func (g Global) Global() bool  { return true }

func (g Global) Round(planes []int, predicted []float64) []decomp.Transfer {
	p := len(planes)
	total := 0
	speeds := make([]float64, p)
	for i := 0; i < p; i++ {
		total += planes[i]
		if predicted[i] <= 0 {
			return nil // not all nodes measured yet
		}
		speeds[i] = float64(planes[i]*g.Plane) / predicted[i]
	}
	if total < p*g.MinKeep {
		return nil
	}
	targets := decomp.ProportionalTargets(total, speeds, g.MinKeep)
	// Lazy: skip the round entirely if no node is further than the
	// threshold from its target.
	worst := 0
	for i := 0; i < p; i++ {
		d := targets[i] - planes[i]
		if d < 0 {
			d = -d
		}
		if d > worst {
			worst = d
		}
	}
	if worst < g.ThresholdPlanes {
		return nil
	}
	starts := make([]int, p+1)
	for i := 0; i < p; i++ {
		starts[i+1] = starts[i] + planes[i]
	}
	cur := decomp.Partition{NX: total, Starts: starts}
	ts, err := decomp.TransfersForTargets(cur, targets)
	if err != nil {
		// Targets are construction-valid; an error here is a bug.
		panic(fmt.Sprintf("balance: global reshape failed: %v", err))
	}
	return ts
}

// ByName constructs a policy by scheme name for the command-line tools.
func ByName(name string, planePoints int) (Policy, error) {
	switch name {
	case "none", "noremap":
		return NoRemap{}, nil
	case "filtered":
		return NewFiltered(planePoints), nil
	case "conservative":
		return NewConservative(planePoints), nil
	case "global":
		return NewGlobal(planePoints), nil
	}
	return nil, fmt.Errorf("balance: unknown policy %q (want none|filtered|conservative|global)", name)
}

// All returns the four paper schemes in comparison order.
func All(planePoints int) []Policy {
	return []Policy{
		NoRemap{},
		NewFiltered(planePoints),
		NewConservative(planePoints),
		NewGlobal(planePoints),
	}
}
