package lbm

import (
	"math"

	"microslip/internal/runctl"
)

// SteadyResult reports a run-to-steady-state outcome.
type SteadyResult struct {
	// Steps actually executed.
	Steps int
	// Converged is true if the residual fell below the tolerance.
	Converged bool
	// Residual is the last relative velocity-change residual.
	Residual float64
}

// RunToSteady advances s until the flow field stops changing: every
// checkEvery steps it compares the barycentric velocity field with the
// previous sample and stops when the relative L2 change
//
//	||u_now - u_prev||_2 / ||u_now||_2  <  tol
//
// or after maxSteps. The paper's production runs integrate "about
// 500,000 LBM phases to reach the steady state"; this criterion makes
// that an explicit, measurable stopping rule. Steps are s's own (one
// composite step, two fine dt, on a refined solver).
//
// The run advances through s.RunSupervised: it stops at the next step
// boundary after a cancellation, wall-clock expiry, or worker abort,
// returning the partial result (steps completed so far, last residual —
// +Inf before the first sample) alongside the stop cause. A nil sup
// means unsupervised; a nil error means the criterion ran to its own
// conclusion (converged or maxSteps).
func RunToSteady(s Stepper, sup *runctl.Supervisor, maxSteps, checkEvery int, tol float64) (SteadyResult, error) {
	if checkEvery < 1 {
		checkEvery = 1
	}
	prev := s.velocitySnapshot()
	res := SteadyResult{Residual: math.Inf(1)}
	for res.Steps < maxSteps {
		n := checkEvery
		if res.Steps+n > maxSteps {
			n = maxSteps - res.Steps
		}
		done, err := s.RunSupervised(n, sup)
		res.Steps += done
		if err != nil {
			return res, err
		}
		cur := s.velocitySnapshot()
		res.Residual = relativeChange(cur, prev)
		if res.Residual < tol {
			res.Converged = true
			return res, nil
		}
		prev = cur
	}
	return res, nil
}

// velocitySnapshot samples the barycentric velocity at every fluid
// cell as a flat (ux, uy, uz) vector.
func (s *SimOf[T]) velocitySnapshot() []float64 {
	p := s.P
	out := make([]float64, 0, 3*p.NX*p.NY*p.NZ)
	for x := 0; x < p.NX; x++ {
		for y := 1; y < p.NY-1; y++ {
			for z := 1; z < p.NZ-1; z++ {
				if s.K.Solid(y, z) {
					continue
				}
				ux, uy, uz := s.Velocity(x, y, z)
				out = append(out, ux, uy, uz)
			}
		}
	}
	return out
}

// relativeChange returns ||a-b|| / ||a||, or +Inf when a is zero while
// b is not, and 0 when both vanish.
func relativeChange(a, b []float64) float64 {
	var diff, norm float64
	for i := range a {
		d := a[i] - b[i]
		diff += d * d
		norm += a[i] * a[i]
	}
	if norm == 0 {
		if diff == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Sqrt(diff / norm)
}
