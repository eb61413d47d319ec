// Package serve is the simulation-as-a-service control plane: a job
// server that accepts slip-simulation jobs over HTTP/JSON, validates
// and enqueues them into a bounded queue, schedules them across a pool
// of worker groups built on the supervised solver paths
// (lbm.Solver.RunSupervised, parlbm.Options.Ctx/WallLimit), and
// persists results and checkpoints through a pluggable Storage
// backend. It is the layer that turns the repo's cancellable,
// deadline-bounded, panic-contained runs (internal/runctl, PR 7) into
// a long-running multi-tenant service.
//
// Lifecycle: queued → running → done | failed | canceled | interrupted.
// A canceled job was stopped by a client through the cancel endpoint; an
// interrupted job was stopped by the server (drain on shutdown, wall
// limit) at a safe boundary with its state checkpointed where possible,
// so it can be resumed by submitting a new job with "resume" set to its
// id.
package serve

import (
	"errors"
	"fmt"
	"time"

	"microslip/internal/lbm"
)

// Kind names for JobSpec.Kind.
const (
	// KindWallForce is the paper's hydrophobic wall-force water/air run
	// on the sequential (intra-node parallel) solver.
	KindWallForce = "wallforce"
	// KindSteady runs the water/air case to the steady-state criterion
	// (velocity residual below SteadyTol) on the sequential solver.
	KindSteady = "steady"
	// KindDistributed runs the domain-decomposed solver across
	// simulated ranks with coordinated checkpoints.
	KindDistributed = "distributed"
)

// State is a job's lifecycle state.
type State string

const (
	// StateQueued means the job is accepted and waiting for a worker.
	StateQueued State = "queued"
	// StateRunning means a pool worker is executing the job.
	StateRunning State = "running"
	// StateDone means the job ran to completion.
	StateDone State = "done"
	// StateFailed means the job errored (validation passed but the run
	// failed: a solver error, a panic contained by runctl, storage).
	StateFailed State = "failed"
	// StateCanceled means a client canceled the job.
	StateCanceled State = "canceled"
	// StateInterrupted means the server stopped the job at a safe
	// boundary (shutdown drain or wall-clock budget); when Resumable is
	// set a checkpoint is committed and a new job can continue it.
	StateInterrupted State = "interrupted"
)

// Terminal reports whether a state is final.
func (s State) Terminal() bool {
	switch s {
	case StateDone, StateFailed, StateCanceled, StateInterrupted:
		return true
	}
	return false
}

// JobSpec is the client-supplied description of one simulation job.
type JobSpec struct {
	// Kind selects the workload: wallforce, steady, or distributed.
	Kind string `json:"kind"`
	// NX, NY, NZ are the lattice dimensions.
	NX int `json:"nx"`
	NY int `json:"ny"`
	NZ int `json:"nz"`
	// Steps is the number of LBM phases to run (the budget for steady
	// jobs; the additional phases for resumed jobs).
	Steps int `json:"steps"`
	// Workers is the intra-node worker count for sequential kinds
	// (0 = 1).
	Workers int `json:"workers,omitempty"`
	// Ranks is the simulated rank count for distributed jobs (0 = 2);
	// every rank needs at least 2 x-planes.
	Ranks int `json:"ranks,omitempty"`
	// Precision is the scalar precision, "f64" (default) or "f32".
	Precision string `json:"precision,omitempty"`
	// Fused is accepted and ignored: every job steps with the fused
	// collide+stream sweep. Kept so specs that still set it decode.
	Fused bool `json:"fused,omitempty"`
	// SteadyTol is the convergence tolerance for steady jobs.
	SteadyTol float64 `json:"steady_tol,omitempty"`
	// CheckEvery is the steady-residual sampling interval in steps
	// (0 = Steps/20, floor 1).
	CheckEvery int `json:"check_every,omitempty"`
	// WallLimitMS is the job's wall-clock budget in milliseconds;
	// exceeding it interrupts the job at a safe boundary (0 = none).
	WallLimitMS int64 `json:"wall_limit_ms,omitempty"`
	// CheckpointInterval is the phases between coordinated checkpoints
	// for distributed jobs (0 = a kind-appropriate default).
	CheckpointInterval int `json:"checkpoint_interval,omitempty"`
	// Resume names an interrupted (or canceled-with-checkpoint) job to
	// continue: the lattice geometry comes from the checkpoint and
	// Steps more phases are run. Kind and dimensions in the spec are
	// then ignored.
	Resume string `json:"resume,omitempty"`
	// Refine, when non-nil, runs the job on the two-level near-wall
	// refined solver (wallforce and steady kinds only). Steps then
	// counts composite steps, each worth two fine time units; the
	// checkpoint of an interrupted refined job records the descriptor
	// and a resume reconstructs the same hierarchy or fails.
	Refine *lbm.RefineSpec `json:"refine,omitempty"`
}

// Limits bounds what a client may ask for; the zero value means the
// package defaults. A long-running multi-tenant server must bound
// client-supplied work, not trust it.
type Limits struct {
	// MaxCells caps NX*NY*NZ (default 1<<22).
	MaxCells int
	// MaxSteps caps Steps (default 500000, the paper's production
	// phase count).
	MaxSteps int
	// MaxRanks caps distributed rank counts (default 16).
	MaxRanks int
	// MaxWorkers caps sequential worker counts (default 64).
	MaxWorkers int
}

func (l Limits) withDefaults() Limits {
	if l.MaxCells <= 0 {
		l.MaxCells = 1 << 22
	}
	if l.MaxSteps <= 0 {
		l.MaxSteps = 500000
	}
	if l.MaxRanks <= 0 {
		l.MaxRanks = 16
	}
	if l.MaxWorkers <= 0 {
		l.MaxWorkers = 64
	}
	return l
}

// ErrBadSpec marks a client error in a submitted JobSpec; the HTTP
// layer maps it to 400.
var ErrBadSpec = errors.New("serve: invalid job spec")

// specErr builds an ErrBadSpec-wrapping error.
func specErr(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrBadSpec, fmt.Sprintf(format, args...))
}

// Validate checks a spec against the limits. Resume jobs skip the
// geometry checks (the checkpoint supplies the lattice) but still
// bound Steps.
func (sp *JobSpec) Validate(l Limits) error {
	l = l.withDefaults()
	if sp.Steps < 1 {
		return specErr("steps %d must be positive", sp.Steps)
	}
	if sp.Steps > l.MaxSteps {
		return specErr("steps %d above the limit %d", sp.Steps, l.MaxSteps)
	}
	if sp.WallLimitMS < 0 {
		return specErr("wall_limit_ms %d negative", sp.WallLimitMS)
	}
	if sp.Workers < 0 || sp.Workers > l.MaxWorkers {
		return specErr("workers %d outside [0, %d]", sp.Workers, l.MaxWorkers)
	}
	if _, err := lbm.ParsePrecision(sp.Precision); err != nil {
		return specErr("precision %q (want f64 or f32)", sp.Precision)
	}
	if sp.Resume != "" {
		return nil // geometry and kind come from the checkpoint
	}
	switch sp.Kind {
	case KindWallForce, KindDistributed:
	case KindSteady:
		if sp.SteadyTol <= 0 {
			return specErr("steady job needs a positive steady_tol, got %v", sp.SteadyTol)
		}
		if sp.CheckEvery < 0 {
			return specErr("check_every %d negative", sp.CheckEvery)
		}
	default:
		return specErr("unknown kind %q (want %s, %s, or %s)", sp.Kind, KindWallForce, KindSteady, KindDistributed)
	}
	if sp.NX < 1 || sp.NY < 3 || sp.NZ < 3 {
		return specErr("lattice %dx%dx%d too small (need nx>=1, ny>=3, nz>=3)", sp.NX, sp.NY, sp.NZ)
	}
	// Divide, never multiply: the product of three client-chosen ints can
	// wrap to a small number (NY, NZ >= 3 here, so no zero divisor).
	if sp.NX > l.MaxCells/sp.NY/sp.NZ {
		return specErr("lattice %dx%dx%d above the limit of %d cells", sp.NX, sp.NY, sp.NZ, l.MaxCells)
	}
	if sp.Refine != nil {
		if sp.Kind == KindDistributed {
			return specErr("refine is not supported for distributed jobs")
		}
		if err := sp.Refine.Validate(lbm.WaterAir(sp.NX, sp.NY, sp.NZ)); err != nil {
			return specErr("refine: %v", err)
		}
	}
	if sp.Kind == KindDistributed {
		if sp.Ranks < 0 || sp.Ranks > l.MaxRanks {
			return specErr("ranks %d outside [0, %d]", sp.Ranks, l.MaxRanks)
		}
		ranks := sp.Ranks
		if ranks == 0 {
			ranks = 2
		}
		if 2*ranks > sp.NX {
			return specErr("ranks %d need at least 2 x-planes each, lattice has %d", ranks, sp.NX)
		}
		if sp.CheckpointInterval < 0 {
			return specErr("checkpoint_interval %d negative", sp.CheckpointInterval)
		}
	}
	return nil
}

// precision returns the parsed precision (validated earlier).
func (sp *JobSpec) precision() lbm.Precision {
	p, _ := lbm.ParsePrecision(sp.Precision)
	return p
}

// Stages is a job's per-stage latency breakdown in milliseconds: time
// spent waiting in the queue, building the solver (schedule), stepping
// the lattice (compute), and persisting results and checkpoints.
type Stages struct {
	QueueWaitMS float64 `json:"queue_wait_ms"`
	ScheduleMS  float64 `json:"schedule_ms"`
	ComputeMS   float64 `json:"compute_ms"`
	PersistMS   float64 `json:"persist_ms"`
}

// Result is a finished (or interrupted) job's outcome.
type Result struct {
	// Steps is the absolute step/phase count reached.
	Steps int `json:"steps"`
	// StartStep is where the run started (nonzero for resumed jobs).
	StartStep int `json:"start_step,omitempty"`
	// Converged and Residual report the steady criterion (steady jobs).
	Converged bool    `json:"converged,omitempty"`
	Residual  float64 `json:"residual,omitempty"`
	// MassWater is the total water-component mass at the end.
	MassWater float64 `json:"mass_water,omitempty"`
	// CenterVelocity is the streamwise velocity at mid-channel.
	CenterVelocity float64 `json:"center_velocity,omitempty"`
	// SlipLengthNM is the Navier slip length from the near-wall profile
	// in nanometers (wallforce and distributed jobs).
	SlipLengthNM float64 `json:"slip_length_nm,omitempty"`
	// CheckpointPhase is the newest committed coordinated checkpoint
	// (distributed jobs), -1 when none.
	CheckpointPhase int `json:"checkpoint_phase,omitempty"`
	// UpdateRatio is the fine-equivalent over actual site updates per
	// step — the refinement's work saving (refined jobs only).
	UpdateRatio float64 `json:"update_ratio,omitempty"`

	// pendingState / pendingRefined hold an interrupted sequential
	// run's snapshot, handed from the compute stage to the persist
	// stage; never marshaled. At most one is non-nil.
	pendingState   *lbm.State
	pendingRefined *lbm.RefinedState
}

// JobStatus is the externally visible record of one job; the storage
// backend persists it verbatim as JSON.
type JobStatus struct {
	ID          string     `json:"id"`
	Spec        JobSpec    `json:"spec"`
	State       State      `json:"state"`
	SubmittedAt time.Time  `json:"submitted_at"`
	StartedAt   *time.Time `json:"started_at,omitempty"`
	FinishedAt  *time.Time `json:"finished_at,omitempty"`
	Stages      Stages     `json:"stages"`
	Error       string     `json:"error,omitempty"`
	Result      *Result    `json:"result,omitempty"`
	// Resumable reports that a committed checkpoint exists from which a
	// "resume" job can continue.
	Resumable bool `json:"resumable,omitempty"`
}

// Frame is one streamed progress sample of a running job, emitted on
// the job's stream endpoint as NDJSON. The final frame of a stream
// carries the terminal state instead of a sample.
type Frame struct {
	// Step is the absolute step/phase count at the sample.
	Step int `json:"step"`
	// Residual is the last steady-state residual (steady jobs).
	Residual float64 `json:"residual,omitempty"`
	// MassWater is the water-component mass at the sample (for
	// distributed jobs, the sum of every rank's share at that step).
	MassWater float64 `json:"mass_water,omitempty"`
	// State is set on the final frame only.
	State State `json:"state,omitempty"`
}
