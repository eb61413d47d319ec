package lbm

import "microslip/internal/runctl"

// Stepper is what every sequential solver shares: stepping, the worker
// allotment, and the diagnostics a caller reads between steps, in
// global fine coordinates. Solver and RefinedSolver both embed it, so
// a job loop holds one Stepper whichever solver it runs; the two differ
// only in their snapshot types and refinement extras. There are three
// ways to advance time: Step and Run, the strictly serial reference the
// tests compare against, and RunSupervised, the production path (the
// steady-state criterion, RunToSteady, is built on it).
type Stepper interface {
	// Params returns the (global fine) simulation parameters.
	Params() *Params
	// Step advances one strictly serial reference step.
	Step()
	// Run advances n serial steps.
	Run(n int)
	// StepCount returns the number of completed steps.
	StepCount() int
	// SetWorkers sets the intra-node worker count; n <= 1 means one.
	SetWorkers(n int)
	// RunSupervised advances up to n steps with the configured
	// intra-node parallelism under a supervisor, checking for
	// cancellation, wall-clock expiry, or a worker abort at every step
	// boundary; it returns the steps completed and the stop cause. A nil
	// supervisor never stops the run; a worker panic comes back as a
	// *runctl.PanicError.
	RunSupervised(n int, sup *runctl.Supervisor) (int, error)
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

	// velocitySnapshot samples the velocity at every (owned) fluid cell
	// in a fixed order: the field RunToSteady compares between samples.
	velocitySnapshot() []float64
}

// Solver is the precision-agnostic surface of the sequential solver:
// everything a caller (benchmarks, the slip experiments, the CLI) needs
// to step a simulation and read diagnostics, independent of whether the
// core runs at float32 or float64. Both SimOf instantiations implement
// it; NewSolver dispatches on Params.Precision so callers never name a
// scalar type.
type Solver interface {
	Stepper
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
