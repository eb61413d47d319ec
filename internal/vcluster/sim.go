package vcluster

import (
	"context"
	"fmt"
	"math"

	"microslip/internal/balance"
	"microslip/internal/decomp"
	"microslip/internal/predict"
	"microslip/internal/profile"
	"microslip/internal/runctl"
)

// Config describes one virtual-cluster run.
type Config struct {
	// P is the number of cluster nodes.
	P int
	// TotalPlanes is the number of lattice x-planes (the paper: 400).
	TotalPlanes int
	// PlanePoints is the number of lattice points per plane (the
	// paper: 200*20 = 4000).
	PlanePoints int
	// Phases is the number of LBM phases to simulate.
	Phases int
	// Policy is the remapping scheme.
	Policy balance.Policy
	// Traces gives each node's speed trace; len(Traces) == P.
	Traces []SpeedTrace
	// Costs is the virtual-time cost model; zero value means
	// DefaultCosts.
	Costs Costs
	// WakeDelay is the scheduler wake-up latency a contended node
	// suffers when it was blocked waiting for messages: a CPU-hogging
	// background job keeps the processor, so the blocked process
	// resumes only after the hog's timeslice. Scaled by how contended
	// the node is; zero disables. This is the paper's "sluggish
	// communication in node 9" (Section 4.2.2): it penalizes schemes
	// that keep a loaded node on the synchronization critical path and
	// is invisible when the node is the pure compute bottleneck
	// (no-remapping) or drained off the critical path (filtered).
	WakeDelay float64
	// JitterBase and JitterContended set the deterministic compute-time
	// noise amplitude: amp = JitterBase + JitterContended*(1-speed).
	// Noise makes the blocked/not-blocked boundary realistic for nodes
	// that finish near-simultaneously.
	JitterBase, JitterContended float64
	// Seed drives the jitter hash.
	Seed int64
	// NewPredictor constructs each node's phase-time predictor; nil
	// means the paper's harmonic mean over the policy's HistoryK
	// window. Used by the predictor-ablation experiments.
	NewPredictor func(k int) predict.Predictor
	// RecordTimeline enables per-phase makespan recording in
	// Result.Timeline.
	RecordTimeline bool
	// Ctx, when non-nil, is checked at every phase boundary: once it is
	// done, Run stops, returns the partial result (CompletedPhases
	// phases of trajectory) and an error wrapping runctl.ErrCanceled.
	Ctx context.Context
	// CheckpointInterval takes a coordinated checkpoint every this many
	// phases: each node persists its planes (CheckpointPerPlane work at
	// its contended speed) and the commit barrier synchronizes the
	// group. Zero disables checkpointing.
	CheckpointInterval int
}

// DefaultConfig returns the paper's experimental setup: 20 nodes over
// the 400-plane lattice with 4,000-point planes and calibrated costs.
func DefaultConfig(policy balance.Policy, traces []SpeedTrace, phases int) Config {
	return Config{
		P:           len(traces),
		TotalPlanes: 400,
		PlanePoints: 4000,
		Phases:      phases,
		Policy:      policy,
		Traces:      traces,
		Costs:       DefaultCosts(),
		WakeDelay:   0.35,
		JitterBase:  0.02, JitterContended: 0.25,
		Seed: 1,
	}
}

// Validate checks the configuration.
func (c *Config) Validate() error {
	if c.P < 1 {
		return fmt.Errorf("vcluster: P %d < 1", c.P)
	}
	if len(c.Traces) != c.P {
		return fmt.Errorf("vcluster: %d traces for %d nodes", len(c.Traces), c.P)
	}
	if c.TotalPlanes < c.P {
		return fmt.Errorf("vcluster: %d planes cannot cover %d nodes", c.TotalPlanes, c.P)
	}
	if c.PlanePoints < 1 {
		return fmt.Errorf("vcluster: PlanePoints %d < 1", c.PlanePoints)
	}
	if c.Phases < 1 {
		return fmt.Errorf("vcluster: Phases %d < 1", c.Phases)
	}
	if c.Policy == nil {
		return fmt.Errorf("vcluster: nil policy")
	}
	if c.WakeDelay < 0 || c.JitterBase < 0 || c.JitterContended < 0 {
		return fmt.Errorf("vcluster: negative noise parameters")
	}
	if c.CheckpointInterval < 0 {
		return fmt.Errorf("vcluster: CheckpointInterval %d negative", c.CheckpointInterval)
	}
	return c.Costs.Validate()
}

// Result reports one run's outcome.
type Result struct {
	// TotalTime is the virtual makespan of the run.
	TotalTime float64
	// SequentialTime is the single-machine reference for speedup.
	SequentialTime float64
	// Profile is the per-node computation/communication/remapping
	// breakdown (Figure 9).
	Profile *profile.Profile
	// FinalPartition is the plane assignment at the end of the run.
	FinalPartition decomp.Partition
	// PlanesMoved counts plane-boundary crossings due to remapping.
	PlanesMoved int
	// RemapRounds counts rounds in which at least one transfer fired.
	RemapRounds int
	// Timeline is the per-phase makespan record; nil unless
	// Config.RecordTimeline was set.
	Timeline *Timeline
	// CompletedPhases counts the phases actually simulated — Config.Phases
	// unless Config.Ctx interrupted the run.
	CompletedPhases int
}

// Speedup returns SequentialTime / TotalTime.
func (r *Result) Speedup() float64 { return r.SequentialTime / r.TotalTime }

// jitterU returns a deterministic pseudo-random value in [-1, 1) for
// (seed, node, phase) using a splitmix-style hash.
func jitterU(seed int64, node, phase int) float64 {
	x := uint64(seed)*0x9E3779B97F4A7C15 + uint64(node)*0xBF58476D1CE4E5B9 + uint64(phase)*0x94D049BB133111EB
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return float64(x>>11)/float64(1<<53)*2 - 1
}

// contention returns how contended a speed is, normalized so the
// persistent-background-job share (1/3) maps to 1.
func contention(s float64) float64 {
	if s >= 1 {
		return 0
	}
	c := (1 - s) / (1 - 1.0/3.0)
	if c > 1 {
		c = 1
	}
	return c
}

// Run executes the virtual-cluster simulation.
func Run(cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	p := cfg.P
	costs := cfg.Costs
	part := decomp.Even(cfg.TotalPlanes, p)
	prof := profile.New(p)

	clock := make([]float64, p)     // end of each node's last phase
	sendReady := make([]float64, p) // when the node's halo data is pushed
	compDur := make([]float64, p)
	preds := make([]predict.Predictor, p)
	newPred := cfg.NewPredictor
	if newPred == nil {
		newPred = func(k int) predict.Predictor { return predict.NewHarmonicMean(k) }
	}
	for i := range preds {
		preds[i] = newPred(cfg.Policy.HistoryK())
	}

	res := &Result{
		SequentialTime: costs.SequentialTime(cfg.TotalPlanes*cfg.PlanePoints, cfg.Phases),
		Profile:        prof,
	}
	if cfg.RecordTimeline {
		res.Timeline = &Timeline{PhaseEnd: make([]float64, 0, cfg.Phases)}
	}
	interval := cfg.Policy.Interval()

	interrupted := false
	for phase := 0; phase < cfg.Phases; phase++ {
		if cfg.Ctx != nil && cfg.Ctx.Err() != nil {
			interrupted = true
			break
		}
		// Compute and push halos.
		for i := 0; i < p; i++ {
			planes := part.Count(i)
			work := float64(planes*cfg.PlanePoints) * costs.CompPerPoint
			amp := cfg.JitterBase + cfg.JitterContended*contention(cfg.Traces[i].SpeedAt(clock[i]))
			work *= 1 + amp*jitterU(cfg.Seed, i, phase)
			compDur[i] = WorkDuration(cfg.Traces[i], clock[i], work)
			compEnd := clock[i] + compDur[i]
			sendReady[i] = compEnd + WorkDuration(cfg.Traces[i], compEnd, costs.PhaseHandlingWork())
		}
		// Exchange with neighbors: a node proceeds once it has pushed
		// its halos and received both neighbors'.
		for i := 0; i < p; i++ {
			arrive := 0.0
			if i > 0 && sendReady[i-1] > arrive {
				arrive = sendReady[i-1]
			}
			if i < p-1 && sendReady[i+1] > arrive {
				arrive = sendReady[i+1]
			}
			end := math.Max(sendReady[i], arrive) + costs.PhaseExchangeWire()
			if arrive > sendReady[i] && cfg.WakeDelay > 0 {
				// The node was blocked; a contended node resumes late.
				if c := contention(cfg.Traces[i].SpeedAt(arrive)); c > 0 {
					end += cfg.WakeDelay * c
				}
			}
			newClock := end
			prof.AddComputation(i, compDur[i])
			prof.AddCommunication(i, newClock-clock[i]-compDur[i])
			if part.Count(i) > 0 {
				preds[i].Observe(compDur[i] / float64(part.Count(i)))
			}
			clock[i] = newClock
		}

		if res.Timeline != nil {
			end := 0.0
			for i := 0; i < p; i++ {
				if clock[i] > end {
					end = clock[i]
				}
			}
			res.Timeline.PhaseEnd = append(res.Timeline.PhaseEnd, end)
		}

		// Remapping round (lines 19-32 of the paper's pseudo-code).
		if interval > 0 && (phase+1)%interval == 0 && phase+1 < cfg.Phases {
			part = remapRound(&cfg, part, clock, preds, prof, res)
		}

		// Coordinated checkpoint: every node persists its planes, then
		// the commit barrier synchronizes the group. The final boundary
		// is skipped on a run that ends there.
		if cfg.CheckpointInterval > 0 && (phase+1)%cfg.CheckpointInterval == 0 && phase+1 < cfg.Phases {
			tsync := 0.0
			for i := 0; i < p; i++ {
				work := float64(part.Count(i)) * costs.CheckpointPerPlane
				t := clock[i] + WorkDuration(cfg.Traces[i], clock[i], work)
				if t > tsync {
					tsync = t
				}
			}
			tsync += costs.CheckpointCommitWire
			for i := 0; i < p; i++ {
				prof.AddCheckpoint(i, tsync-clock[i])
				clock[i] = tsync
			}
		}
		res.CompletedPhases++
	}

	res.TotalTime = 0
	for i := 0; i < p; i++ {
		if clock[i] > res.TotalTime {
			res.TotalTime = clock[i]
		}
	}
	res.FinalPartition = part
	if interrupted {
		return res, fmt.Errorf("vcluster: interrupted after %d of %d phases: %w",
			res.CompletedPhases, cfg.Phases, runctl.ErrCanceled)
	}
	return res, nil
}

// remapRound charges information-exchange costs, applies the policy's
// transfers, and charges data-migration costs.
func remapRound(cfg *Config, part decomp.Partition, clock []float64,
	preds []predict.Predictor, prof *profile.Profile, res *Result) decomp.Partition {

	p := cfg.P
	costs := cfg.Costs

	planes := part.Counts()
	predicted := make([]float64, p)
	for i := 0; i < p; i++ {
		predicted[i] = preds[i].Predict() * float64(planes[i])
	}

	// Information exchange.
	if cfg.Policy.Global() {
		// Collective: a root-based gather + scatter. Everyone blocks
		// until the slowest participant has contributed, and each
		// contended participant adds its wake latency twice (its gather
		// contribution and its scatter acknowledgement serialize
		// through the root) — the global synchronization sensitivity to
		// slow nodes that Section 4.2.3 reports.
		tsync := 0.0
		for i := 0; i < p; i++ {
			t := clock[i] + WorkDuration(cfg.Traces[i], clock[i], costs.CollectiveHandlingWork)
			if t > tsync {
				tsync = t
			}
		}
		for i := 0; i < p; i++ {
			if c := contention(cfg.Traces[i].SpeedAt(clock[i])); c > 0 {
				tsync += 2 * cfg.WakeDelay * c
			}
		}
		tsync += costs.GlobalSyncWire
		for i := 0; i < p; i++ {
			prof.AddRemapping(i, tsync-clock[i])
			clock[i] = tsync
		}
	} else {
		// Neighbor-local load-index exchange.
		newClock := make([]float64, p)
		for i := 0; i < p; i++ {
			t := clock[i]
			if i > 0 && clock[i-1] > t {
				t = clock[i-1]
			}
			if i < p-1 && clock[i+1] > t {
				t = clock[i+1]
			}
			newClock[i] = t + costs.RemapInfoWire
		}
		for i := 0; i < p; i++ {
			prof.AddRemapping(i, newClock[i]-clock[i])
			clock[i] = newClock[i]
		}
	}

	ts := cfg.Policy.Round(planes, predicted)
	if len(ts) == 0 {
		return part
	}
	res.RemapRounds++

	// Data migration: each transfer occupies both endpoints for packing
	// (CPU work at their contended speeds) plus wire time.
	for _, tr := range ts {
		start := math.Max(clock[tr.From], clock[tr.To])
		packW := float64(tr.Planes) * costs.MsgHandlingWork
		dur := math.Max(
			WorkDuration(cfg.Traces[tr.From], start, packW),
			WorkDuration(cfg.Traces[tr.To], start, packW),
		) + float64(tr.Planes)*costs.PlaneMoveWire
		end := start + dur
		prof.AddRemapping(tr.From, end-clock[tr.From])
		prof.AddRemapping(tr.To, end-clock[tr.To])
		clock[tr.From] = end
		clock[tr.To] = end
		res.PlanesMoved += tr.Planes
	}

	next, err := part.Apply(ts, 1)
	if err != nil {
		// Policies guarantee applicable transfers; a failure is a bug.
		panic(fmt.Sprintf("vcluster: policy %s produced inapplicable transfers: %v", cfg.Policy.Name(), err))
	}
	return next
}
