// Package config defines the JSON experiment configuration consumed by
// cmd/clustersim, mapping declarative workload and scheme descriptions
// onto the vcluster and balance packages.
package config

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"

	"microslip/internal/balance"
	"microslip/internal/vcluster"
)

// Workload describes the background-job pattern of a run.
type Workload struct {
	// Type is one of "dedicated", "fixed-slow", "duty-cycle", "spikes".
	Type string `json:"type"`
	// SlowNodes lists the disturbed nodes for fixed-slow; empty means
	// SlowCount nodes spread evenly.
	SlowNodes []int `json:"slow_nodes,omitempty"`
	// SlowCount spreads this many slow nodes when SlowNodes is empty.
	SlowCount int `json:"slow_count,omitempty"`
	// Node and Duty configure the duty-cycle workload (Figure 3).
	Node int     `json:"node,omitempty"`
	Duty float64 `json:"duty,omitempty"`
	// SpikeSeconds configures the transient-spike workload (Table 1).
	SpikeSeconds float64 `json:"spike_seconds,omitempty"`
	// HorizonSeconds bounds the spike schedule; 0 picks a generous
	// default.
	HorizonSeconds float64 `json:"horizon_seconds,omitempty"`
}

// Recovery holds the checkpoint knob of a simulated run.
type Recovery struct {
	// CheckpointInterval takes a coordinated checkpoint every this many
	// phases; zero disables checkpointing.
	CheckpointInterval int `json:"checkpoint_interval,omitempty"`
}

// Experiment is one clustersim run.
type Experiment struct {
	Nodes       int      `json:"nodes"`
	Phases      int      `json:"phases"`
	Policy      string   `json:"policy"`
	Workload    Workload `json:"workload"`
	TotalPlanes int      `json:"total_planes,omitempty"` // default 400
	PlanePoints int      `json:"plane_points,omitempty"` // default 4000
	Seed        int64    `json:"seed,omitempty"`
	// Recovery configures coordinated checkpointing.
	Recovery Recovery `json:"recovery,omitempty"`
}

// Default fills unset fields with the paper's values.
func (e *Experiment) Default() {
	if e.Nodes == 0 {
		e.Nodes = 20
	}
	if e.Phases == 0 {
		e.Phases = 600
	}
	if e.Policy == "" {
		e.Policy = "filtered"
	}
	if e.TotalPlanes == 0 {
		e.TotalPlanes = 400
	}
	if e.PlanePoints == 0 {
		e.PlanePoints = 4000
	}
	if e.Seed == 0 {
		e.Seed = 1
	}
	if e.Workload.Type == "" {
		e.Workload.Type = "dedicated"
	}
}

// MaxNodes bounds the simulated cluster size a configuration may
// request; it keeps hostile or corrupted inputs from demanding
// absurd allocations.
const MaxNodes = 4096

// MaxHorizonSeconds bounds the spike-schedule horizon for the same
// reason (the schedule holds one entry per DisturbancePeriod).
const MaxHorizonSeconds = 1e6

// Validate checks the configuration after defaulting. An experiment
// that validates is guaranteed to build: BuildPolicy, BuildTraces and
// BuildConfig cannot fail or panic afterwards (FuzzRead enforces
// exactly this).
func (e *Experiment) Validate() error {
	if e.Nodes < 1 || e.Phases < 1 {
		return fmt.Errorf("config: nodes %d / phases %d must be positive", e.Nodes, e.Phases)
	}
	if e.Nodes > MaxNodes {
		return fmt.Errorf("config: nodes %d exceeds limit %d", e.Nodes, MaxNodes)
	}
	if e.TotalPlanes < e.Nodes {
		return fmt.Errorf("config: %d planes cannot cover %d nodes", e.TotalPlanes, e.Nodes)
	}
	if e.PlanePoints < 1 {
		return fmt.Errorf("config: plane_points %d must be positive", e.PlanePoints)
	}
	if _, err := balance.ByName(e.Policy, e.PlanePoints); err != nil {
		return err
	}
	w := e.Workload
	switch w.Type {
	case "dedicated":
	case "fixed-slow":
		for _, n := range w.SlowNodes {
			if n < 0 || n >= e.Nodes {
				return fmt.Errorf("config: slow node %d out of range [0,%d)", n, e.Nodes)
			}
		}
		if len(w.SlowNodes) == 0 && (w.SlowCount < 0 || w.SlowCount > e.Nodes) {
			return fmt.Errorf("config: slow_count %d out of [0,%d]", w.SlowCount, e.Nodes)
		}
	case "duty-cycle":
		if w.Node < 0 || w.Node >= e.Nodes {
			return fmt.Errorf("config: node %d out of range [0,%d)", w.Node, e.Nodes)
		}
		if math.IsNaN(w.Duty) || w.Duty < 0 || w.Duty > 1 {
			return fmt.Errorf("config: duty %v out of [0,1]", w.Duty)
		}
	case "spikes":
		if math.IsNaN(w.SpikeSeconds) || w.SpikeSeconds <= 0 || w.SpikeSeconds > vcluster.DisturbancePeriod {
			return fmt.Errorf("config: spike length %v out of (0,%v]", w.SpikeSeconds, vcluster.DisturbancePeriod)
		}
		if math.IsNaN(w.HorizonSeconds) || w.HorizonSeconds < 0 || w.HorizonSeconds > MaxHorizonSeconds {
			return fmt.Errorf("config: horizon %v out of [0,%v]", w.HorizonSeconds, MaxHorizonSeconds)
		}
	default:
		return fmt.Errorf("config: unknown workload type %q", w.Type)
	}
	if e.Recovery.CheckpointInterval < 0 {
		return fmt.Errorf("config: checkpoint_interval %d negative", e.Recovery.CheckpointInterval)
	}
	return nil
}

// BuildPolicy constructs the remapping policy.
func (e *Experiment) BuildPolicy() (balance.Policy, error) {
	return balance.ByName(e.Policy, e.PlanePoints)
}

// BuildTraces constructs the per-node speed traces.
func (e *Experiment) BuildTraces() ([]vcluster.SpeedTrace, error) {
	w := e.Workload
	switch w.Type {
	case "dedicated":
		return vcluster.Dedicated(e.Nodes), nil
	case "fixed-slow":
		slow := w.SlowNodes
		if len(slow) == 0 {
			slow = vcluster.SpreadSlowNodes(e.Nodes, w.SlowCount)
		}
		for _, n := range slow {
			if n < 0 || n >= e.Nodes {
				return nil, fmt.Errorf("config: slow node %d out of range", n)
			}
		}
		return vcluster.FixedSlowNodes(e.Nodes, slow), nil
	case "duty-cycle":
		if w.Node < 0 || w.Node >= e.Nodes {
			return nil, fmt.Errorf("config: node %d out of range", w.Node)
		}
		return vcluster.DutyCycleNode(e.Nodes, w.Node, w.Duty), nil
	case "spikes":
		horizon := w.HorizonSeconds
		if horizon == 0 {
			horizon = 1e5
		}
		return vcluster.TransientSpikes(e.Nodes, w.SpikeSeconds, horizon, e.Seed+42), nil
	}
	return nil, fmt.Errorf("config: unknown workload type %q", w.Type)
}

// BuildConfig assembles the full vcluster configuration.
func (e *Experiment) BuildConfig() (vcluster.Config, error) {
	pol, err := e.BuildPolicy()
	if err != nil {
		return vcluster.Config{}, err
	}
	traces, err := e.BuildTraces()
	if err != nil {
		return vcluster.Config{}, err
	}
	cfg := vcluster.DefaultConfig(pol, traces, e.Phases)
	cfg.TotalPlanes = e.TotalPlanes
	cfg.PlanePoints = e.PlanePoints
	cfg.Seed = e.Seed
	cfg.CheckpointInterval = e.Recovery.CheckpointInterval
	return cfg, nil
}

// Read parses, defaults and validates an experiment from JSON.
func Read(r io.Reader) (*Experiment, error) {
	var e Experiment
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&e); err != nil {
		return nil, fmt.Errorf("config: %w", err)
	}
	e.Default()
	if err := e.Validate(); err != nil {
		return nil, err
	}
	return &e, nil
}

// ReadFile reads an experiment from a JSON file.
func ReadFile(path string) (*Experiment, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("config: %w", err)
	}
	defer f.Close()
	return Read(f)
}
