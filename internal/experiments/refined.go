package experiments

import (
	"fmt"
	"math"
	"strings"

	"microslip/internal/lbm"
)

// RefinedComparison quantifies what the two-level near-wall refinement
// costs in physical accuracy on the microchannel slip case: the same
// setup run uniform-fine and refined, compared on the paper's headline
// quantities — the normalized streamwise velocity profile and the
// apparent slip derived from it — plus the refinement bookkeeping the
// coupling has to defend (raw interface mass drift and the work
// saving).
type RefinedComparison struct {
	Setup PhysicsSetup
	Spec  lbm.RefineSpec
	// Uniform and Refined are the full per-solver results.
	Uniform, Refined *PhysicsResult
	// MaxRelErr and RMSRelErr compare the forced-run normalized
	// velocity profiles (u/u0 along y at mid-depth), relative to the
	// peak |u/u0| of the uniform profile so near-wall rows with tiny
	// velocities don't dominate.
	MaxRelErr, RMSRelErr float64
	// SlipDeltaPP is |slip%_refined - slip%_uniform| in percentage
	// points (the paper's headline number is ~10%).
	SlipDeltaPP float64
	// RawMassDrift is the worst per-component relative mass deviation
	// the refined forced run's renormalization absorbed.
	RawMassDrift float64
	// UpdateRatio is fine-equivalent site updates over refined site
	// updates for the same physical time: the raw work saving.
	UpdateRatio float64
}

// RunRefinedSlip is RunSlipPhysics on the two-level refined solver:
// one forced and one force-free run, profiles sampled at mid-depth in
// global fine coordinates (slab rows direct, bulk rows interpolated
// from the coarse block). One composite refined step covers two fine
// time units, so Steps is halved on the refined clock. It also returns
// the forced solver for drift inspection.
func RunRefinedSlip(setup PhysicsSetup, spec lbm.RefineSpec) (*PhysicsResult, lbm.RefinedSolver, error) {
	var forcedSolver lbm.RefinedSolver
	run := func(withWallForce bool) (lbm.RefinedSolver, error) {
		p := lbm.WaterAir(setup.NX, setup.NY, setup.NZ)
		p.Precision = setup.Precision
		if !withWallForce {
			p.WallForceComp = -1
		}
		s, err := lbm.NewRefined(p, spec)
		if err != nil {
			return nil, err
		}
		return s, setup.advance(s, (setup.Steps+1)/2)
	}
	forced, err := run(true)
	if err != nil {
		return nil, nil, err
	}
	forcedSolver = forced
	free, err := run(false)
	if err != nil {
		return nil, nil, err
	}

	res := &PhysicsResult{Setup: setup}
	x := setup.NX / 2
	z := setup.SampleZ
	yc := setup.NY / 2
	uF := forced.VelocityProfileY(x, z)
	uN := free.VelocityProfileY(x, z)
	u0F := uF[yc]
	u0N := uN[yc]
	if u0F <= 0 || u0N <= 0 {
		return nil, nil, fmt.Errorf("experiments: no streamwise flow developed in refined run")
	}
	for y := 1; y < setup.NY-1; y++ {
		res.VelForced = append(res.VelForced, uF[y]/u0F)
		res.VelFree = append(res.VelFree, uN[y]/u0N)
	}
	res.SlipPercent = 100 * (res.VelForced[0] - res.VelFree[0])
	return res, forcedSolver, nil
}

// RunRefinedAccuracy runs the slip physics case once uniform-fine and
// once refined and compares the profiles. The two runs share every
// physical parameter; the differences measure the two-level coupling
// (coarse bulk discretization, interface reconstruction, and the mass
// renormalization) alone.
func RunRefinedAccuracy(setup PhysicsSetup, spec lbm.RefineSpec) (*RefinedComparison, error) {
	uni, err := RunSlipPhysics(setup)
	if err != nil {
		return nil, fmt.Errorf("experiments: uniform run: %w", err)
	}
	ref, solver, err := RunRefinedSlip(setup, spec)
	if err != nil {
		return nil, fmt.Errorf("experiments: refined run: %w", err)
	}
	if len(ref.VelForced) != len(uni.VelForced) {
		return nil, fmt.Errorf("experiments: profile lengths differ: %d vs %d", len(ref.VelForced), len(uni.VelForced))
	}
	cmp := &RefinedComparison{Setup: setup, Spec: spec, Uniform: uni, Refined: ref}
	var peak float64
	for _, v := range uni.VelForced {
		if a := math.Abs(v); a > peak {
			peak = a
		}
	}
	if peak == 0 {
		return nil, fmt.Errorf("experiments: flat uniform velocity profile")
	}
	var sumSq float64
	for i := range uni.VelForced {
		rel := math.Abs(ref.VelForced[i]-uni.VelForced[i]) / peak
		if rel > cmp.MaxRelErr {
			cmp.MaxRelErr = rel
		}
		sumSq += rel * rel
	}
	cmp.RMSRelErr = math.Sqrt(sumSq / float64(len(uni.VelForced)))
	cmp.SlipDeltaPP = math.Abs(ref.SlipPercent - uni.SlipPercent)
	cmp.RawMassDrift = solver.MassDrift()
	refined, fineEq := solver.SiteUpdatesPerStep()
	cmp.UpdateRatio = fineEq / refined
	return cmp, nil
}

// Table renders the comparison for EXPERIMENTS.md.
func (c *RefinedComparison) Table() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Refined-grid accuracy: slip case at %dx%dx%d, %d fine steps, %d wall layers\n",
		c.Setup.NX, c.Setup.NY, c.Setup.NZ, c.Setup.Steps, c.Spec.WallLayers)
	fmt.Fprintf(&sb, "%-28s %12s %12s\n", "quantity", "uniform", "refined")
	fmt.Fprintf(&sb, "%-28s %12.4f %12.4f\n", "apparent slip (%)", c.Uniform.SlipPercent, c.Refined.SlipPercent)
	fmt.Fprintf(&sb, "velocity-profile error vs uniform: max %.3g, RMS %.3g (rel. to profile peak)\n",
		c.MaxRelErr, c.RMSRelErr)
	fmt.Fprintf(&sb, "slip delta: %.4f percentage points\n", c.SlipDeltaPP)
	fmt.Fprintf(&sb, "raw interface mass drift absorbed: %.3g relative\n", c.RawMassDrift)
	fmt.Fprintf(&sb, "site-update saving: %.2fx\n", c.UpdateRatio)
	return sb.String()
}
