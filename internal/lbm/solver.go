package lbm

import "microslip/internal/runctl"

// Solver is the precision-agnostic surface of the sequential solver:
// everything a driver (benchmarks, the slip experiments, the CLI) needs
// to step a simulation and read diagnostics, independent of whether the
// core runs at float32 or float64. Both SimOf instantiations implement
// it; NewSolver dispatches on Params.Precision so callers never name a
// scalar type.
type Solver interface {
	// Params returns the simulation parameters.
	Params() *Params
	// Step advances one strictly serial reference step.
	Step()
	// Run advances n serial steps.
	Run(n int)
	// StepParallel advances one step with the configured intra-node
	// parallelism: the fused sweep, in place, over every band.
	StepParallel()
	// RunParallelSteps advances n steps with StepParallel.
	RunParallelSteps(n int)
	// StepCount returns the number of completed steps.
	StepCount() int
	// SetWorkers sets the intra-node worker count.
	SetWorkers(n int)
	// AutoWorkers sets the worker count from the CPU count.
	AutoWorkers()
	// Workers returns the configured worker count.
	Workers() int
	// SetFusedChunks pins the band count (tests only).
	SetFusedChunks(n int)
	// RunSupervised advances up to n steps under a supervisor, checking
	// for cancellation, wall-clock expiry, or a worker abort at every
	// step boundary; it returns the steps completed and the stop cause.
	RunSupervised(n int, sup *runctl.Supervisor) (int, error)
	// SetBandHook installs the per-band-step observation hook used by
	// fault injection and supervision tests.
	SetBandHook(hook func(band, step int))
	// RunToSteady advances until the velocity field stops changing.
	RunToSteady(maxSteps, checkEvery int, tol float64) SteadyResult
	// RunToSteadySupervised is RunToSteady under a supervisor,
	// returning the partial result alongside any stop cause.
	RunToSteadySupervised(sup *runctl.Supervisor, maxSteps, checkEvery int, tol float64) (SteadyResult, error)
	// Velocity returns the barycentric velocity at (x, y, z).
	Velocity(x, y, z int) (ux, uy, uz float64)
	// Density returns the mass density of component c at (x, y, z).
	Density(c, x, y, z int) float64
	// DensityProfileY returns component c's density along y at (x, z).
	DensityProfileY(c, x, z int) []float64
	// VelocityProfileY returns streamwise velocity along y at (x, z).
	VelocityProfileY(x, z int) []float64
	// TotalMass returns the total mass of component c.
	TotalMass(c int) float64
	// CheckFinite errors on the first NaN population.
	CheckFinite() error
	// State captures a double-precision snapshot (exact for f32 cores).
	State() *State
}

// The two instantiations the rest of the repo uses.
var (
	_ Solver = (*SimOf[float64])(nil)
	_ Solver = (*SimOf[float32])(nil)
)

// NewSolver builds the sequential solver matching p.Precision.
func NewSolver(p *Params) (Solver, error) {
	if p.Precision == F32 {
		return NewSimOf[float32](p)
	}
	return NewSimOf[float64](p)
}

// SolverFromState reconstructs the solver matching st.Params.Precision
// from a snapshot (the form resume paths should use, so a reduced-
// precision checkpoint resumes at its recorded precision).
func SolverFromState(st *State) (Solver, error) {
	if st != nil && st.Params != nil && st.Params.Precision == F32 {
		return SimFromState[float32](st)
	}
	return SimFromState[float64](st)
}
