package lbm

import (
	"fmt"

	"microslip/internal/field"
	"microslip/internal/geometry"
	"microslip/internal/lattice"
	"microslip/internal/num"
	"microslip/internal/runctl"
)

// Two-level near-wall grid refinement. The paper's physics lives in a
// thin depletion layer at the hydrophobic walls; the bulk of the
// channel carries a smooth pressure-driven profile that does not need
// the wall resolution. The refined solver therefore keeps the fine
// lattice only in two slabs of WallLayers fluid rows against the y
// walls and covers the bulk with a factor-2 coarser lattice, stepped
// under acoustic scaling (dx_c = 2 dx_f, dt_c = 2 dt_f): per composite
// step the fine slabs advance two sub-steps and the coarse block one,
// then the blocks exchange ghost rows through conservative rescaled-
// distribution coupling.
//
// Each block is an ordinary SimOf at the solver's precision, holding one
// lattice and stepped by the same in-place sweep — refinement composes
// with the kernel work instead of forking it. The blocks are closed for
// the unmodified kernel by fake solid rows ("closure" rows, see
// field.MultiLevel); the rows the fake walls pollute are exactly the
// ghost rows, which the exchange overwrites from the other level every
// composite step, so the owned rows only ever see correctly-advanced
// data.
//
// Coupling follows the rescaled-distribution (Dupuis-Chopard) scheme:
// a transferred cell is decomposed into equilibrium and non-equilibrium
// parts, f = feq(n, u) + fneq, and fneq — which under acoustic scaling
// is proportional to tau*dt — is rescaled by
//
//	alpha    = tau_f / (2 tau_c)   (coarse -> fine explosion)
//	1/alpha  = 2 tau_c / tau_f     (fine -> coarse coalescence)
//
// with tau_c = tau_f/2 + 1/4 so both lattices share one physical
// viscosity. Explosion copies the rescaled distribution of a coarse
// cell into all eight fine cells it covers; coalescence averages the
// eight fine distributions before rescaling. Both directions preserve
// the cell's density exactly (a rest population patch absorbs the
// recomposition round-off) and its momentum to round-off (fneq carries
// none), and a cell already at equilibrium passes through bit-for-bit,
// so a uniform rest state is an exact fixed point of the exchange.
//
// The remaining interface flux mismatch (the coupling is zeroth-order
// in space and frozen-ghost in time) leaks owned mass — near round-off
// at small test geometries, ~2.4e-4 relative per composite step at the
// paper config, where real depletion-layer gradients cross the
// interface. A threshold-triggered renormalization of the owned rows
// returns the owned mass of each component to its initial value
// whenever the relative drift exceeds renormTol, keeping the long-run
// drift at the 1e-13 scale while recording the raw drift as a
// diagnostic; at paper size it fires every composite step, so its
// passes are engineered as part of the step budget (see maybeRenorm).
type RefineSpec struct {
	// Levels is the number of grid levels; only 2 (fine + one coarse)
	// is supported.
	Levels int `json:"levels"`
	// WallLayers is the number of fine fluid rows kept against each y
	// wall (>= 4 so the coalescence sources stay inside the owned
	// region).
	WallLayers int `json:"wall_layers"`
}

// multiLevel derives and validates the block decomposition for p.
func (rs RefineSpec) multiLevel(p *Params) (field.MultiLevel, error) {
	var ml field.MultiLevel
	if rs.Levels != 2 {
		return ml, fmt.Errorf("lbm: refinement supports exactly 2 levels, got %d", rs.Levels)
	}
	ml, err := field.NewMultiLevel(p.NX, p.NY, p.NZ, rs.WallLayers)
	if err != nil {
		return ml, err
	}
	// The refined decomposition relies on the solid mask being exactly
	// the channel walls and on a uniform initial state; the features
	// below would need per-level reconstruction that is not supported.
	if len(p.Obstacles) > 0 {
		return ml, fmt.Errorf("lbm: refinement does not support obstacles")
	}
	if p.WallAdhesion != nil {
		return ml, fmt.Errorf("lbm: refinement does not support wall adhesion")
	}
	if p.InitXWave != 0 {
		return ml, fmt.Errorf("lbm: refinement does not support InitXWave")
	}
	if p.WallWindow != nil {
		return ml, fmt.Errorf("lbm: refinement derives its own wall windows; Params.WallWindow must be nil")
	}
	return ml, nil
}

// Validate reports whether the spec is compatible with p.
func (rs RefineSpec) Validate(p *Params) error {
	_, err := rs.multiLevel(p)
	return err
}

// coarseTau maps a fine relaxation time to the coarse level's: the
// lattice viscosity cs^2(tau-1/2) must halve so the physical viscosity
// nu = cs^2(tau-1/2) dx^2/dt is shared.
func coarseTau(tau float64) float64 { return tau/2 + 0.25 }

// levelParams derives the per-block parameter sets: the two fine wall
// slabs (full resolution, identity wall-force scale, offset windows)
// and the coarse bulk block (halved dims, rescaled tau, doubled body
// force, scale-2 wall window). Precision, the S-C coupling matrix, and the wall-force shape parameters carry over
// unchanged — the S-C force needs no rescaling because the coarse
// psi-gradient stencil doubles the gradient estimate by itself, which
// is exactly the dt^2/dx factor the coarse acceleration needs.
func (rs RefineSpec) levelParams(p *Params) (bot, top, coarse *Params, err error) {
	ml, err := rs.multiLevel(p)
	if err != nil {
		return nil, nil, nil, err
	}
	mkFine := func(y0 int) *Params {
		q := *p
		q.NY = ml.FineNY()
		q.WallWindow = &geometry.WallForceWindow{
			GlobalNY: p.NY, GlobalNZ: p.NZ, Y0: float64(y0), Z0: 0, Scale: 1,
		}
		return &q
	}
	bot = mkFine(0)
	top = mkFine(ml.TopSlabY0())
	q := *p
	q.NX, q.NY, q.NZ = ml.CoarseDims()
	q.Components = make([]Component, len(p.Components))
	for i, c := range p.Components {
		c.Tau = coarseTau(c.Tau)
		q.Components[i] = c
	}
	q.BodyForce = [3]float64{2 * p.BodyForce[0], 2 * p.BodyForce[1], 2 * p.BodyForce[2]}
	q.WallWindow = &geometry.WallForceWindow{
		GlobalNY: p.NY, GlobalNZ: p.NZ, Y0: ml.CoarseYPos(0), Z0: -0.5, Scale: 2,
	}
	coarse = &q
	return bot, top, coarse, nil
}

// SiteUpdatesPerStep returns the lattice-site updates one composite
// refined step performs (two sub-steps on each fine slab plus one
// coarse step) and the updates a uniform-fine solver needs for the
// same physical time span (two full-lattice steps). Their ratio is the
// raw work saving (slipd reports it as update_ratio).
func (rs RefineSpec) SiteUpdatesPerStep(p *Params) (refined, fineEquivalent float64, err error) {
	ml, err := rs.multiLevel(p)
	if err != nil {
		return 0, 0, err
	}
	cnx, cny, cnz := ml.CoarseDims()
	refined = 4*float64(p.NX*ml.FineNY()*p.NZ) + float64(cnx*cny*cnz)
	fineEquivalent = 2 * float64(p.NX) * float64(p.NY) * float64(p.NZ)
	return refined, fineEquivalent, nil
}

// RefinedSolver is the precision-agnostic surface of the two-level
// refined solver: the Stepper surface addressed in global fine
// coordinates, with composite steps (one Step = two fine time units),
// plus the refinement-specific state and mass bookkeeping.
//
// Step advances one serial composite step: two sub-steps on each fine
// slab, one coarse step, renormalization, ghost exchange. StepCount
// counts composite steps, and RunToSteady's maxSteps and checkEvery are
// composite steps too. Velocity and friends interpolate bulk rows from
// the coarse block (3-point Lagrange, exact for the parabolic channel
// profile); TotalMass is the owned fine-equivalent mass (coarse cells
// weigh eight fine cells), accumulated in double precision.
type RefinedSolver interface {
	Stepper
	Spec() RefineSpec
	// MassDrift returns the worst per-component relative deviation of
	// the owned mass from its initial value, including everything the
	// renormalization has absorbed (the raw, uncorrected drift).
	MassDrift() float64
	// SiteUpdatesPerStep reports the per-composite-step work, see
	// RefineSpec.SiteUpdatesPerStep.
	SiteUpdatesPerStep() (refined, fineEquivalent float64)
	State() *RefinedState
}

// refinedOf is the two-level refined solver at scalar precision T.
type refinedOf[T num.Float] struct {
	p    *Params
	spec RefineSpec
	ml   field.MultiLevel

	bot, top, coarse *SimOf[T]

	// alpha[c]/invAlpha[c] are the per-component non-equilibrium
	// rescaling factors of the explosion/coalescence directions.
	alpha, invAlpha []T
	// restEps*|n| bounds the non-equilibrium magnitude below which a
	// transferred cell counts as at equilibrium and is copied through
	// bit-for-bit (64 ulps: rounding noise of the moment round-trip).
	restEps T
	rhoMin  T

	// exScratch caches the rescaled source rows of one explosion call
	// (srcRow-1, srcRow, srcRow+1; indexed [row][xc*cnz+zc]). Every
	// coarse source cell feeds up to seven stencil positions across the
	// destination bricks, and rescaleCell pays an equilibrium
	// decomposition per call, so caching the rescale per source cell
	// cuts the explosion's moment work about two-fold. Preallocated so
	// the composite step stays allocation-free.
	exScratch [3][][lattice.Q19]T

	step int

	// m0[c] is the owned fine-equivalent mass of component c at
	// construction; renormalization returns the mass to it whenever
	// the relative drift exceeds renormTol. rawDrift accumulates what
	// the renormalizations absorbed. mNow is scratch.
	m0, rawDrift, mNow []float64
	renormTol          float64
}

var (
	_ RefinedSolver = (*refinedOf[float64])(nil)
	_ RefinedSolver = (*refinedOf[float32])(nil)
)

// NewRefined builds the refined solver matching p.Precision. The
// blocks start from the same uniform rest equilibrium a uniform solver
// starts from; the initial ghost exchange is an exact no-op on it.
func NewRefined(p *Params, spec RefineSpec) (RefinedSolver, error) {
	if p.Precision == F32 {
		return newRefinedOf[float32](p, spec)
	}
	return newRefinedOf[float64](p, spec)
}

func newRefinedOf[T num.Float](p *Params, spec RefineSpec) (*refinedOf[T], error) {
	bp, tp, cp, err := levelParamsChecked(p, spec)
	if err != nil {
		return nil, err
	}
	bot, err := NewSimOf[T](bp)
	if err != nil {
		return nil, err
	}
	top, err := NewSimOf[T](tp)
	if err != nil {
		return nil, err
	}
	coarse, err := NewSimOf[T](cp)
	if err != nil {
		return nil, err
	}
	r, err := assembleRefined(p, spec, bot, top, coarse)
	if err != nil {
		return nil, err
	}
	r.exchangeGhosts()
	for c := range r.m0 {
		r.m0[c] = r.ownedMassComp(c)
	}
	return r, nil
}

// levelParamsChecked is levelParams preceded by full Params validation.
func levelParamsChecked(p *Params, spec RefineSpec) (bot, top, coarse *Params, err error) {
	if err := p.Validate(); err != nil {
		return nil, nil, nil, err
	}
	return spec.levelParams(p)
}

// assembleRefined wires three constructed level sims into a refined
// solver (shared by the fresh constructor and the resume path).
func assembleRefined[T num.Float](p *Params, spec RefineSpec, bot, top, coarse *SimOf[T]) (*refinedOf[T], error) {
	ml, err := spec.multiLevel(p)
	if err != nil {
		return nil, err
	}
	nc := p.NComp()
	r := &refinedOf[T]{
		p: p, spec: spec, ml: ml,
		bot: bot, top: top, coarse: coarse,
		alpha: make([]T, nc), invAlpha: make([]T, nc),
		rhoMin: T(p.RhoMin),
		m0:     make([]float64, nc), rawDrift: make([]float64, nc), mNow: make([]float64, nc),
	}
	for c, comp := range p.Components {
		tc := coarseTau(comp.Tau)
		r.alpha[c] = T(comp.Tau / (2 * tc))
		r.invAlpha[c] = T((2 * tc) / comp.Tau)
	}
	if isSingle[T]() {
		r.restEps = T(64 * 1.1920929e-07) // 64 * 2^-23
		r.renormTol = 1e-6
	} else {
		r.restEps = T(64 * 2.220446049250313e-16) // 64 * 2^-52
		r.renormTol = 1e-13
	}
	for i := range r.exScratch {
		r.exScratch[i] = make([][lattice.Q19]T, coarse.P.NX*coarse.P.NZ)
	}
	return r, nil
}

// Params returns the global fine parameter set.
func (r *refinedOf[T]) Params() *Params { return r.p }

// Spec returns the refinement descriptor.
func (r *refinedOf[T]) Spec() RefineSpec { return r.spec }

// StepCount returns completed composite steps.
func (r *refinedOf[T]) StepCount() int { return r.step }

// SiteUpdatesPerStep reports the per-composite-step work.
func (r *refinedOf[T]) SiteUpdatesPerStep() (refined, fineEquivalent float64) {
	refined, fineEquivalent, _ = r.spec.SiteUpdatesPerStep(r.p)
	return refined, fineEquivalent
}

// level returns block i (0 bot, 1 top, 2 coarse) and its sub-steps per
// composite step.
func (r *refinedOf[T]) level(i int) (*SimOf[T], int) {
	switch i {
	case 0:
		return r.bot, 2
	case 1:
		return r.top, 2
	default:
		return r.coarse, 1
	}
}

// Step advances one serial composite step: the blocks on their
// reference paths, then renormalization and the ghost exchange. It is
// bit-identical to a RunSupervised step for any worker count, like the
// uniform solver's Step.
func (r *refinedOf[T]) Step() {
	r.bot.Run(2)
	r.top.Run(2)
	r.coarse.Run(1)
	r.finishStep()
}

// Run advances n serial composite steps.
func (r *refinedOf[T]) Run(n int) {
	for i := 0; i < n; i++ {
		r.Step()
	}
}

// finishStep completes a composite step once all blocks have advanced:
// renormalize if the owned mass drifted, then refresh every ghost row
// so both the next step and any diagnostics read coherent interfaces.
func (r *refinedOf[T]) finishStep() {
	r.maybeRenorm()
	r.exchangeGhosts()
	r.step++
}

// runParallelErr advances n composite steps with the configured
// intra-node parallelism, returning a worker panic as an error.
func (r *refinedOf[T]) runParallelErr(n int) error {
	for i := 0; i < n; i++ {
		if err := r.advanceLevels(); err != nil {
			return err
		}
		r.finishStep()
	}
	return nil
}

// advanceLevels runs each block's sub-steps for one composite step. The
// blocks step in turn, each on the whole worker allotment; a fine slab
// runs its two sub-steps.
func (r *refinedOf[T]) advanceLevels() error {
	for i := 0; i < 3; i++ {
		lv, steps := r.level(i)
		if err := lv.runParallelErr(steps); err != nil {
			return err
		}
	}
	return nil
}

// SetWorkers sets the intra-node worker count every block steps with.
func (r *refinedOf[T]) SetWorkers(n int) {
	r.bot.SetWorkers(n)
	r.top.SetWorkers(n)
	r.coarse.SetWorkers(n)
}

// RunSupervised advances up to n composite steps under a supervisor,
// checking at every composite boundary, so a soft stop always leaves
// the blocks at one shared physical time with fresh ghosts —
// checkpoint-and-resume reproduces the uninterrupted run bit for bit.
func (r *refinedOf[T]) RunSupervised(n int, sup *runctl.Supervisor) (int, error) {
	for done := 0; done < n; done++ {
		if err := sup.Err(); err != nil {
			return done, err
		}
		if err := r.runParallelErr(1); err != nil {
			sup.Trip(err)
			return done, err
		}
	}
	return n, nil
}

// velocitySnapshot samples the barycentric velocity at every owned
// fluid cell of the three blocks, in a fixed order.
func (r *refinedOf[T]) velocitySnapshot() []float64 {
	D := r.ml.D
	nb := r.ml.CoarseOwnedRows()
	out := make([]float64, 0, 3*(2*r.p.NX*D*r.p.NZ+r.coarse.P.NX*nb*r.coarse.P.NZ))
	appendLevel := func(s *SimOf[T], y0, y1 int) {
		for x := 0; x < s.P.NX; x++ {
			for y := y0; y <= y1; y++ {
				for z := 1; z < s.P.NZ-1; z++ {
					ux, uy, uz := s.Velocity(x, y, z)
					out = append(out, ux, uy, uz)
				}
			}
		}
	}
	appendLevel(r.bot, 1, D)
	appendLevel(r.top, 5, D+4)
	appendLevel(r.coarse, 3, nb+2)
	return out
}
