// Package balance is the paper's contribution, filtered dynamic
// remapping of lattice points (Section 3), together with the three
// schemes it is compared against. The distributed runner (parlbm) and
// the virtual-cluster simulator (vcluster) both decide with it.
//
// The lattice is cut into contiguous slices of x-planes, one per node
// of a linear processor array (Section 2.2, Partition). Every Interval
// LBM phases a remapping round runs. Each node predicts its next-phase
// time with the harmonic mean of its last K measured phase times
// (HarmonicMean), which one transient spike barely moves, exchanges
// (point count, predicted time) with its neighbors, and solves the local
// three-node balance
//
//	N'_{i-1}/S_{i-1} = N'_i/S_i = N'_{i+1}/S_{i+1}
//	  with N' summing to N_{i-1}+N_i+N_{i+1},  S_j = N_j / T_j
//
// A transfer toward a neighbor happens only if it passes the filters:
// the amount exceeds a threshold (one 2-D lattice plane) and the
// receiver is faster than the sender (lazy remapping: never feed a slow
// node). When a transfer fires from a confirmed-slow node, the amount is
// scaled up by kappa = S_recv/S_send (over-redistribution), draining the
// slow node aggressively. Opposite decisions at one boundary are
// resolved by shipping the net amount (Config.Resolve).
//
// The baselines are no remapping, conservative redistribution (the same
// lazy machinery shipping delta/alpha) and global remapping (all nodes'
// load indices gathered, every node given its speed-proportional share).
// The last-value, arithmetic-mean, exponential-smoothing and tendency
// predictors serve the predictor ablation.
package balance

import "fmt"

// Policy is one remapping scheme: which of the paper's four it is and
// the tunables it runs with. Policies are pure decision logic;
// measurement, prediction state and data movement belong to the runner.
// The zero Policy never remaps.
type Policy struct {
	// Name is the scheme: "none", "filtered", "conservative" or
	// "global".
	Name string
	// Cfg holds the tunables. Filtered and conservative differ only
	// here. Global reads Interval, HistoryK, PlanePoints, MinKeepPlanes
	// and ThresholdPoints (rounded down to whole planes); none reads
	// nothing.
	Cfg Config
}

// NoRemap is the static-decomposition baseline.
func NoRemap() Policy { return Policy{Name: "none"} }

// NewFiltered builds the paper's scheme (local exchange, lazy filters,
// over-redistribution from confirmed-slow nodes) with the default
// configuration for the given plane size.
func NewFiltered(planePoints int) Policy {
	return Policy{Name: "filtered", Cfg: DefaultConfig(planePoints)}
}

// NewConservative builds the conservative scheme (alpha = 2).
func NewConservative(planePoints int) Policy {
	return Policy{Name: "conservative", Cfg: ConservativeConfig(planePoints)}
}

// NewGlobal builds the global scheme with the filtered defaults, so
// comparisons isolate the information-exchange strategy. It keeps lazy
// remapping (harmonic prediction, one-plane threshold) but not
// over-redistribution, matching Section 4.2.3: slow nodes retain their
// proportional share, and every round pays a collective exchange.
func NewGlobal(planePoints int) Policy {
	return Policy{Name: "global", Cfg: DefaultConfig(planePoints)}
}

// ByName constructs a policy by scheme name for the command-line tools.
func ByName(name string, planePoints int) (Policy, error) {
	switch name {
	case "none", "noremap":
		return NoRemap(), nil
	case "filtered":
		return NewFiltered(planePoints), nil
	case "conservative":
		return NewConservative(planePoints), nil
	case "global":
		return NewGlobal(planePoints), nil
	}
	return Policy{}, fmt.Errorf("balance: unknown policy %q (want none|filtered|conservative|global)", name)
}

// All returns the four paper schemes in comparison order.
func All(planePoints int) []Policy {
	return []Policy{NoRemap(), NewFiltered(planePoints), NewConservative(planePoints), NewGlobal(planePoints)}
}

// remaps reports whether the scheme ever moves planes.
func (p Policy) remaps() bool { return p.Name != "" && p.Name != "none" }

// Validate accepts the no-remap scheme and checks the configuration of
// the others.
func (p Policy) Validate() error {
	switch p.Name {
	case "", "none":
		return nil
	case "filtered", "conservative", "global":
		return p.Cfg.Validate()
	}
	return fmt.Errorf("balance: unknown policy %q", p.Name)
}

// Interval returns the number of phases between remapping rounds, or 0
// if the policy never remaps.
func (p Policy) Interval() int {
	if !p.remaps() {
		return 0
	}
	return p.Cfg.Interval
}

// HistoryK returns the predictor window length the runner should use.
func (p Policy) HistoryK() int {
	if !p.remaps() {
		return 1
	}
	return p.Cfg.HistoryK
}

// Global reports whether the round requires all-node information
// exchange (the runner charges collective-communication cost).
func (p Policy) Global() bool { return p.Name == "global" }

// Round computes executable neighbor transfers from the per-node plane
// counts and predicted next-phase times. predicted[i] <= 0 means node i
// has no measurement yet; policies keep quiet then.
func (p Policy) Round(planes []int, predicted []float64) []Transfer {
	switch p.Name {
	case "filtered", "conservative":
		return p.Cfg.Resolve(p.Cfg.DecideAll(planes, predicted), planes)
	case "global":
		return p.Cfg.reshape(planes, predicted)
	}
	return nil
}

// reshape is the global round: every node's plane count is set
// proportional to its predicted speed, unless no node is at least the
// threshold away from its target.
func (c Config) reshape(planes []int, predicted []float64) []Transfer {
	p := len(planes)
	total := 0
	speeds := make([]float64, p)
	for i := 0; i < p; i++ {
		total += planes[i]
		if predicted[i] <= 0 {
			return nil // not all nodes measured yet
		}
		speeds[i] = float64(planes[i]*c.PlanePoints) / predicted[i]
	}
	if total < p*c.MinKeepPlanes {
		return nil
	}
	targets := ProportionalTargets(total, speeds, c.MinKeepPlanes)
	worst := 0
	for i := 0; i < p; i++ {
		worst = max(worst, targets[i]-planes[i], planes[i]-targets[i])
	}
	if worst < c.ThresholdPoints/c.PlanePoints {
		return nil
	}
	starts := make([]int, p+1)
	for i := 0; i < p; i++ {
		starts[i+1] = starts[i] + planes[i]
	}
	ts, err := TransfersForTargets(Partition{NX: total, Starts: starts}, targets)
	if err != nil {
		// Targets are construction-valid; an error here is a bug.
		panic(fmt.Sprintf("balance: global reshape failed: %v", err))
	}
	return ts
}
