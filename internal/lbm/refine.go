package lbm

import (
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"time"

	"microslip/internal/field"
	"microslip/internal/geometry"
	"microslip/internal/lattice"
	"microslip/internal/num"
	"microslip/internal/predict"
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
// refined solver: the Solver diagnostics addressed in global fine
// coordinates, composite stepping (one Step = two fine time units),
// and the refinement-specific state and mass bookkeeping.
type RefinedSolver interface {
	Params() *Params
	Spec() RefineSpec
	// Step advances one serial composite step: two sub-steps on each
	// fine slab, one coarse step, renormalization, ghost exchange.
	Step()
	Run(n int)
	// StepParallel is Step with the configured intra-node parallelism;
	// with >= 3 workers the three blocks advance concurrently, each on
	// its own share of the worker allotment.
	StepParallel()
	RunParallelSteps(n int)
	// StepCount returns completed composite steps (2 fine dt each).
	StepCount() int
	SetWorkers(n int)
	AutoWorkers()
	Workers() int
	RunSupervised(n int, sup *runctl.Supervisor) (int, error)
	RunToSteady(maxSteps, checkEvery int, tol float64) SteadyResult
	RunToSteadySupervised(sup *runctl.Supervisor, maxSteps, checkEvery int, tol float64) (SteadyResult, error)
	// Velocity and friends take global fine coordinates; bulk rows are
	// interpolated from the coarse block (3-point Lagrange, exact for
	// the parabolic channel profile).
	Velocity(x, y, z int) (ux, uy, uz float64)
	Density(c, x, y, z int) float64
	DensityProfileY(c, x, z int) []float64
	VelocityProfileY(x, z int) []float64
	// TotalMass is the owned fine-equivalent mass (coarse cells weigh
	// eight fine cells), accumulated in double precision.
	TotalMass(c int) float64
	CheckFinite() error
	// MassDrift returns the worst per-component relative deviation of
	// the owned mass from its initial value, including everything the
	// renormalization has absorbed (the raw, uncorrected drift).
	MassDrift() float64
	// SiteUpdatesPerStep reports the per-composite-step work, see
	// RefineSpec.SiteUpdatesPerStep.
	SiteUpdatesPerStep() (refined, fineEquivalent float64)
	State() *RefinedState
}

// rebalanceEvery is the composite-step cadence of the concurrent-level
// worker re-split; between re-splits the measured level times keep
// feeding the predictors.
const rebalanceEvery = 32

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

	step    int
	workers int

	// m0[c] is the owned fine-equivalent mass of component c at
	// construction; renormalization returns the mass to it whenever
	// the relative drift exceeds renormTol. rawDrift accumulates what
	// the renormalizations absorbed. mNow is scratch.
	m0, rawDrift, mNow []float64
	renormTol          float64

	// Concurrent-level scheduling: with >= 3 workers the blocks step
	// concurrently on a persistent pool, the worker allotment split by
	// per-level cost. The predictors observe measured level times
	// (weighted by static site cost, so they learn a per-site rate)
	// and drive the lazy re-split.
	costs    [3]float64
	pred     [3]*predict.Weighted
	pool     *stepPool
	work     func(int)
	levelErr [3]error
	applied  [3]int
	sinceBal int
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
		rhoMin:  T(p.RhoMin),
		workers: 1,
		m0:      make([]float64, nc), rawDrift: make([]float64, nc), mNow: make([]float64, nc),
		applied: [3]int{1, 1, 1},
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
	fine := 2 * float64(p.NX*ml.FineNY()*p.NZ)
	cnx, cny, cnz := ml.CoarseDims()
	r.costs = [3]float64{fine, fine, float64(cnx * cny * cnz)}
	for i := range r.pred {
		r.pred[i] = predict.NewWeighted(predict.NewHarmonicMean(8), r.costs[i])
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
// bit-identical to StepParallel for any worker count, like the
// uniform solver's Step/StepParallel pair.
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

// StepParallel advances one composite step with the configured
// intra-node parallelism.
func (r *refinedOf[T]) StepParallel() { r.RunParallelSteps(1) }

// RunParallelSteps advances n composite steps with the configured
// intra-node parallelism. Like the uniform solver, a worker panic
// re-panics with the typed cause; supervised loops use RunSupervised
// and get it as an error.
func (r *refinedOf[T]) RunParallelSteps(n int) {
	if err := r.runParallelErr(n); err != nil {
		panic(err)
	}
}

func (r *refinedOf[T]) runParallelErr(n int) error {
	for i := 0; i < n; i++ {
		if err := r.advanceLevels(); err != nil {
			return err
		}
		r.finishStep()
	}
	return nil
}

// advanceLevels runs each block's sub-steps for one composite step.
// Below three workers the blocks run sequentially, each with the whole
// worker allotment; with three or more they run concurrently on the
// level pool, the allotment split across them by cost.
func (r *refinedOf[T]) advanceLevels() error {
	if r.workers >= 3 {
		return r.advanceLevelsPool()
	}
	for i := 0; i < 3; i++ {
		lv, steps := r.level(i)
		if err := lv.runParallelErr(steps); err != nil {
			return err
		}
	}
	return nil
}

func (r *refinedOf[T]) advanceLevelsPool() error {
	r.ensurePool()
	r.rebalance()
	r.levelErr = [3]error{}
	r.pool.run(r.work)
	for _, err := range r.levelErr {
		if err != nil {
			return err
		}
	}
	return nil
}

// ensurePool builds the persistent three-worker level pool and its
// cached closure; a panic on a level's inline path is contained here
// the same way band workers contain theirs, so the pool rendezvous
// always completes.
func (r *refinedOf[T]) ensurePool() {
	if r.pool != nil {
		return
	}
	r.pool = newStepPool(3)
	r.work = func(i int) {
		defer func() {
			if rec := recover(); rec != nil {
				r.levelErr[i] = &runctl.PanicError{Rank: -1, Band: i, Value: rec, Stack: debug.Stack()}
			}
		}()
		lv, steps := r.level(i)
		t0 := time.Now()
		r.levelErr[i] = lv.runParallelErr(steps)
		if r.levelErr[i] == nil {
			r.pred[i].Observe(float64(time.Since(t0)))
		}
	}
}

// rebalance re-splits the worker allotment across the blocks. Until
// every predictor has observations the split follows the static site
// counts; after that the predicted level times drive it. A new split
// is applied only when it improves the predicted makespan by more than
// 10% — the paper's lazy remap rule reused at level granularity, so
// jittery measurements cannot oscillate the band schedulers through
// rebuilds.
func (r *refinedOf[T]) rebalance() {
	force := r.applied == [3]int{}
	r.sinceBal++
	if !force && r.sinceBal < rebalanceEvery {
		return
	}
	r.sinceBal = 0
	w := r.costs
	if p0, p1, p2 := r.pred[0].Predict(), r.pred[1].Predict(), r.pred[2].Predict(); p0 > 0 && p1 > 0 && p2 > 0 {
		w = [3]float64{p0, p1, p2}
	}
	var counts [3]int
	splitWorkersByCost(r.workers, w[:], counts[:])
	if counts == r.applied {
		return
	}
	if !force && levelMakespan(w, r.applied) <= 1.1*levelMakespan(w, counts) {
		return
	}
	r.applied = counts
	r.bot.SetWorkers(counts[0])
	r.top.SetWorkers(counts[1])
	r.coarse.SetWorkers(counts[2])
}

// levelMakespan is the predicted wall time of a split: the slowest
// level at its worker share.
func levelMakespan(w [3]float64, counts [3]int) float64 {
	var worst float64
	for i, c := range counts {
		if c < 1 {
			c = 1
		}
		if t := w[i] / float64(c); t > worst {
			worst = t
		}
	}
	return worst
}

// SetWorkers sets the total intra-node worker count. Below three the
// blocks step sequentially, each using the whole allotment; at three
// or more they step concurrently, the allotment split by cost.
func (r *refinedOf[T]) SetWorkers(n int) {
	if n < 1 {
		n = 1
	}
	r.workers = n
	r.applied = [3]int{} // force a fresh split (or full-allotment reset)
	if n < 3 {
		r.applied = [3]int{n, n, n}
		r.bot.SetWorkers(n)
		r.top.SetWorkers(n)
		r.coarse.SetWorkers(n)
	}
}

// AutoWorkers sets the worker count from the CPU count.
func (r *refinedOf[T]) AutoWorkers() { r.SetWorkers(runtime.GOMAXPROCS(0)) }

// Workers returns the configured total worker count.
func (r *refinedOf[T]) Workers() int { return r.workers }

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

// RunToSteady advances until the owned velocity field stops changing;
// maxSteps and checkEvery are composite steps (two fine dt each).
func (r *refinedOf[T]) RunToSteady(maxSteps, checkEvery int, tol float64) SteadyResult {
	if checkEvery < 1 {
		checkEvery = 1
	}
	prev := r.velocitySnapshot()
	res := SteadyResult{Residual: math.Inf(1)}
	for res.Steps < maxSteps {
		n := checkEvery
		if res.Steps+n > maxSteps {
			n = maxSteps - res.Steps
		}
		r.RunParallelSteps(n)
		res.Steps += n
		cur := r.velocitySnapshot()
		res.Residual = relativeChange(cur, prev)
		if res.Residual < tol {
			res.Converged = true
			return res
		}
		prev = cur
	}
	return res
}

// RunToSteadySupervised is RunToSteady under a supervisor.
func (r *refinedOf[T]) RunToSteadySupervised(sup *runctl.Supervisor, maxSteps, checkEvery int, tol float64) (SteadyResult, error) {
	if checkEvery < 1 {
		checkEvery = 1
	}
	prev := r.velocitySnapshot()
	res := SteadyResult{Residual: math.Inf(1)}
	for res.Steps < maxSteps {
		n := checkEvery
		if res.Steps+n > maxSteps {
			n = maxSteps - res.Steps
		}
		done, err := r.RunSupervised(n, sup)
		res.Steps += done
		if err != nil {
			return res, err
		}
		cur := r.velocitySnapshot()
		res.Residual = relativeChange(cur, prev)
		if res.Residual < tol {
			res.Converged = true
			return res, nil
		}
		prev = cur
	}
	return res, nil
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
