package lbm

import (
	"math"
	"math/rand"
	"testing"

	"microslip/internal/field"
	"microslip/internal/geometry"
	"microslip/internal/lattice"
)

// refineTestParams is the smallest channel the two-level decomposition
// accepts with the default WallLayers=4: NY = 2*4+10 leaves the coarse
// block exactly four owned rows.
func refineTestParams() (*Params, RefineSpec) {
	return WaterAir(8, 20, 8), RefineSpec{Levels: 2, WallLayers: 4}
}

func TestRefineSpecValidate(t *testing.T) {
	p, spec := refineTestParams()
	if err := spec.Validate(p); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Params, *RefineSpec)
	}{
		{"levels != 2", func(p *Params, s *RefineSpec) { s.Levels = 3 }},
		{"wall layers < 4", func(p *Params, s *RefineSpec) { s.WallLayers = 3 }},
		{"odd NX", func(p *Params, s *RefineSpec) { p.NX = 7 }},
		{"odd NY", func(p *Params, s *RefineSpec) { p.NY = 21 }},
		{"odd NZ", func(p *Params, s *RefineSpec) { p.NZ = 9 }},
		{"NY too small", func(p *Params, s *RefineSpec) { p.NY = 16 }},
		{"obstacles", func(p *Params, s *RefineSpec) {
			p.Obstacles = []Obstacle{{Y0: 8, Y1: 10, Z0: 2, Z1: 3}}
		}},
		{"init x wave", func(p *Params, s *RefineSpec) { p.InitXWave = 0.01 }},
		{"explicit wall window", func(p *Params, s *RefineSpec) {
			p.WallWindow = &geometry.WallForceWindow{GlobalNY: 20, GlobalNZ: 8, Scale: 1}
		}},
	}
	for _, tc := range cases {
		p, spec := refineTestParams()
		tc.mutate(p, &spec)
		if err := spec.Validate(p); err == nil {
			t.Errorf("%s: expected validation error", tc.name)
		}
	}
}

func TestRefineSiteUpdatesPerStep(t *testing.T) {
	p, spec := refineTestParams()
	refined, fineEq, err := spec.SiteUpdatesPerStep(p)
	if err != nil {
		t.Fatal(err)
	}
	// Two slabs x two sub-steps of 8x10x8 plus one coarse 4x11x5 step.
	if want := 4*float64(8*10*8) + float64(4*11*5); refined != want {
		t.Errorf("refined updates = %v, want %v", refined, want)
	}
	if want := 2 * float64(8*20*8); fineEq != want {
		t.Errorf("fine-equivalent updates = %v, want %v", fineEq, want)
	}
	// The tiny test geometry is slab-dominated, so the savings check
	// runs at the paper config, where the coarse bulk block is the
	// overwhelming share of the channel.
	pp := WaterAir(200, 100, 20)
	paper := RefineSpec{Levels: 2, WallLayers: 12}
	refined, fineEq, err = paper.SiteUpdatesPerStep(pp)
	if err != nil {
		t.Fatal(err)
	}
	if ratio := fineEq / refined; ratio < 2 {
		t.Errorf("paper-config update ratio %.2f, want >= 2", ratio)
	}
}

// levelPlanesSnapshot deep-copies every distribution plane of every
// block, via the per-level State snapshots.
func refinedSnapshot(r RefinedSolver) *RefinedState { return r.State() }

func refinedBitEqual(t *testing.T, label string, a, b *RefinedState) {
	t.Helper()
	for li := 0; li < 3; li++ {
		sa, sb := a.Levels[li], b.Levels[li]
		for c := range sa.F {
			for x := range sa.F[c] {
				pa, pb := sa.F[c][x], sb.F[c][x]
				for i := range pa {
					if math.Float64bits(pa[i]) != math.Float64bits(pb[i]) {
						t.Fatalf("%s: level %d comp %d plane %d index %d: %v != %v",
							label, li, c, x, i, pa[i], pb[i])
					}
				}
			}
		}
	}
}

// The ghost exchange must be idempotent — its sources are disjoint from
// its writes — and the uniform rest equilibrium the solver starts from
// must pass through it bit for bit (the rest shortcut), at both
// precisions. Both properties are load-bearing:
// idempotency is what lets the resume path re-run the exchange, and the
// rest fixed point is what keeps the interface invisible in a fluid at
// rest.
func TestRefinedExchangeIdempotentRestNoop(t *testing.T) {
	for _, prec := range []Precision{F64, F32} {
		p, spec := refineTestParams()
		p.Precision = prec
		solver, err := NewRefined(p, spec)
		if err != nil {
			t.Fatal(err)
		}
		before := refinedSnapshot(solver)
		switch r := solver.(type) {
		case *refinedOf[float64]:
			r.exchangeGhosts()
		case *refinedOf[float32]:
			r.exchangeGhosts()
		}
		refinedBitEqual(t, prec.String(), before, refinedSnapshot(solver))
	}
}

// With every force disabled the uniform rest mixture must stay put
// under refined stepping to the same tolerance the uniform solver
// holds: the kernels fix the rest state and the exchange copies
// equilibrium cells through untouched.
func TestRefinedRestStateStationary(t *testing.T) {
	p, spec := refineTestParams()
	p.WallForceComp = -1
	p.BodyForce = [3]float64{}
	p.G = [][]float64{{0, 0}, {0, 0}}
	solver, err := NewRefined(p, spec)
	if err != nil {
		t.Fatal(err)
	}
	before := refinedSnapshot(solver)
	solver.Run(5)
	after := refinedSnapshot(solver)
	for li := 0; li < 3; li++ {
		for c := range before.Levels[li].F {
			for x := range before.Levels[li].F[c] {
				pa, pb := before.Levels[li].F[c][x], after.Levels[li].F[c][x]
				for i := range pa {
					if math.Abs(pa[i]-pb[i]) > 1e-14 {
						t.Fatalf("rest state drifted: level %d comp %d plane %d index %d: %v -> %v",
							li, c, x, i, pa[i], pb[i])
					}
				}
			}
		}
	}
}

// rescaleCell must preserve a cell's density exactly up to the final
// rounding of the rest-population patch and its momentum to round-off,
// for random non-equilibrium populations and any rescale factor.
func TestRescaleCellConservesMoments(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	moments := func(fv *[lattice.Q19]float64) (n, px, py, pz float64) {
		for i, v := range fv {
			n += v
			px += float64(lattice.Ex[i]) * v
			py += float64(lattice.Ey[i]) * v
			pz += float64(lattice.Ez[i]) * v
		}
		return n, px, py, pz
	}
	for trial := 0; trial < 200; trial++ {
		var fv [lattice.Q19]float64
		rho := 0.05 + rng.Float64()
		var eq [lattice.Q19]float64
		lattice.EquilibriumOf(rho, 0.08*(rng.Float64()-0.5), 0.08*(rng.Float64()-0.5), 0.08*(rng.Float64()-0.5), &eq)
		for i := range fv {
			fv[i] = eq[i] * (1 + 0.3*(rng.Float64()-0.5))
		}
		n0, px0, py0, pz0 := moments(&fv)
		scale := []float64{2.0 / 3.0, 1.5}[trial%2]
		rescaleCell(&fv, scale, 64*2.220446049250313e-16, 1e-12)
		n1, px1, py1, pz1 := moments(&fv)
		// The rest-population patch pins the kernel's pairwise density
		// sum; this sequential re-sum can differ from it by a few ulps
		// of the sum magnitude on top of that.
		if math.Abs(n1-n0) > 2e-15*n0 {
			t.Fatalf("trial %d: density %v -> %v", trial, n0, n1)
		}
		ptol := 1e-13 * n0
		if math.Abs(px1-px0) > ptol || math.Abs(py1-py0) > ptol || math.Abs(pz1-pz0) > ptol {
			t.Fatalf("trial %d: momentum (%v,%v,%v) -> (%v,%v,%v)",
				trial, px0, py0, pz0, px1, py1, pz1)
		}
	}
}

// rowMoments accumulates the raw fluid-cell density and momentum of
// component c over local rows [y0, y1] of one block, in float64.
func rowMoments(t *testing.T, s *Sim, c, y0, y1 int) (m, px, py, pz float64) {
	t.Helper()
	nz := s.P.NZ
	var fv [lattice.Q19]float64
	for x := 0; x < s.P.NX; x++ {
		plane := s.f[c][x]
		for y := y0; y <= y1; y++ {
			for z := 1; z < nz-1; z++ {
				readCell(plane, y*nz+z, &fv)
				for i, v := range fv {
					m += v
					px += float64(lattice.Ex[i]) * v
					py += float64(lattice.Ey[i]) * v
					pz += float64(lattice.Ez[i]) * v
				}
			}
		}
	}
	return m, px, py, pz
}

// The full ghost exchange must conserve mass and momentum between the
// source rows of one level and the ghost rows it writes on the other,
// for random (non-equilibrium, moving) states: explosion writes eight
// fine copies of each coarse cell, coalescence averages eight fine
// cells into one coarse cell of eight-fold weight.
func TestRefinedExchangeConservation(t *testing.T) {
	p, spec := refineTestParams()
	solver, err := NewRefined(p, spec)
	if err != nil {
		t.Fatal(err)
	}
	r := solver.(*refinedOf[float64])
	rng := rand.New(rand.NewSource(11))
	perturb := func(s *Sim) {
		for c := range s.f {
			for x := range s.f[c] {
				plane := s.f[c][x]
				for i := range plane {
					plane[i] *= 1 + 0.2*(rng.Float64()-0.5)
				}
			}
		}
	}
	perturb(r.bot)
	perturb(r.top)
	perturb(r.coarse)
	D := r.ml.D
	nb := r.ml.CoarseOwnedRows()
	// Source moments, measured after the perturbation.
	cm, cpx, cpy, cpz := rowMoments(t, r.coarse, 0, 3, 4) // explodes into bot ghosts
	bm, bpx, bpy, bpz := rowMoments(t, r.bot, 0, D-3, D)  // coalesces into coarse ghosts 1,2
	r.exchangeGhosts()
	gm, gpx, gpy, gpz := rowMoments(t, r.bot, 0, D+1, D+4)
	hm, hpx, hpy, hpz := rowMoments(t, r.coarse, 0, 1, 2)
	check := func(label string, got, want, tol float64) {
		t.Helper()
		if math.Abs(got-want) > tol {
			t.Errorf("%s: %v != %v (|diff| %v > %v)", label, got, want, math.Abs(got-want), tol)
		}
	}
	mtol := 1e-12 * cm * 8
	ptol := 1e-11 * cm
	check("explode mass", gm, 8*cm, mtol)
	check("explode px", gpx, 8*cpx, ptol)
	check("explode py", gpy, 8*cpy, ptol)
	check("explode pz", gpz, 8*cpz, ptol)
	check("coalesce mass", 8*hm, bm, mtol)
	check("coalesce px", 8*hpx, bpx, ptol)
	check("coalesce py", 8*hpy, bpy, ptol)
	check("coalesce pz", 8*hpz, bpz, ptol)
	_ = nb
}

// Over a long refined run with the full physics on, the owned total
// mass of each component must hold to its initial value within 1e-12
// relative — the renormalization's contract — and the raw interface
// drift it absorbs must stay finite and small.
func TestRefinedMassConservationLong(t *testing.T) {
	steps := 1000
	if testing.Short() {
		steps = 120
	}
	p, spec := refineTestParams()
	solver, err := NewRefined(p, spec)
	if err != nil {
		t.Fatal(err)
	}
	m0 := [2]float64{solver.TotalMass(0), solver.TotalMass(1)}
	solver.Run(steps)
	if err := solver.CheckFinite(); err != nil {
		t.Fatal(err)
	}
	for c := 0; c < 2; c++ {
		m := solver.TotalMass(c)
		if rel := math.Abs(m/m0[c] - 1); rel > 1e-12 {
			t.Errorf("component %d: owned mass drifted %v relative after %d steps", c, rel, steps)
		}
	}
	// The raw drift the renorm absorbs is dominated by the coarse
	// grid's under-resolution of the z-wall depletion layer; at this
	// deliberately tiny geometry (NZ=8, decay=2) that layer spans half
	// the channel, so the per-step pump is orders of magnitude above
	// its paper-config value. Bound it loosely as a sanity check on
	// the exchange itself — a broken transfer map blows far past this.
	raw := solver.MassDrift()
	t.Logf("raw interface drift after %d composite steps: %.3e", steps, raw)
	if raw > 1e-2*float64(steps) {
		t.Errorf("raw interface drift %v unexpectedly large", raw)
	}
}

// Refined parallel stepping must match serial refined stepping bit for
// bit: the blocks step in turn, each on the whole worker allotment, so
// each block's own Step/RunSupervised identity carries the result.
func TestRefinedParallelMatchesStep(t *testing.T) {
	for _, workers := range []int{2, 3, 5} {
		p, spec := refineTestParams()
		serial, err := NewRefined(p, spec)
		if err != nil {
			t.Fatal(err)
		}
		par, err := NewRefined(p, spec)
		if err != nil {
			t.Fatal(err)
		}
		par.SetWorkers(workers)
		for i := 0; i < 4; i++ {
			serial.Step()
			advance(t, par, 1)
		}
		r := par.(*refinedOf[float64])
		for i, lv := range []*Sim{r.bot, r.top, r.coarse} {
			if lv.workers != workers {
				t.Errorf("workers=%d: block %d steps on %d workers", workers, i, lv.workers)
			}
		}
		refinedBitEqual(t, "workers", refinedSnapshot(serial), refinedSnapshot(par))
	}
}

// Checkpoint round-trip: a refined run snapshotted mid-flight and
// rebuilt from the snapshot must continue bit-identically to the
// uninterrupted run, at both precisions — the renormalization anchor
// travels in the snapshot, and the resume's ghost re-exchange is a
// no-op on post-exchange state.
func TestRefinedResumeBitIdentity(t *testing.T) {
	for _, prec := range []Precision{F64, F32} {
		p, spec := refineTestParams()
		p.Precision = prec
		ref, err := NewRefined(p, spec)
		if err != nil {
			t.Fatal(err)
		}
		ref.Run(6)

		ab, err := NewRefined(p, spec)
		if err != nil {
			t.Fatal(err)
		}
		ab.Run(3)
		st := ab.State()
		resumed, err := RefinedFromState(st)
		if err != nil {
			t.Fatal(err)
		}
		if resumed.StepCount() != 3 {
			t.Fatalf("resumed at step %d, want 3", resumed.StepCount())
		}
		resumed.Run(3)
		refinedBitEqual(t, prec.String(), refinedSnapshot(ref), refinedSnapshot(resumed))
	}
}

// RefinedFromState must reject snapshots whose bookkeeping does not
// match the parameter set.
func TestRefinedFromStateRejectsMismatch(t *testing.T) {
	p, spec := refineTestParams()
	r, err := NewRefined(p, spec)
	if err != nil {
		t.Fatal(err)
	}
	st := r.State()
	st.M0 = []float64{1}
	if _, err := RefinedFromState(st); err == nil {
		t.Error("expected error for truncated M0")
	}
	st = r.State()
	st.Levels[2] = nil
	if _, err := RefinedFromState(st); err == nil {
		t.Error("expected error for missing level snapshot")
	}
	if _, err := RefinedFromState(nil); err == nil {
		t.Error("expected error for nil state")
	}
}

// The refined composite step must not depend on the ignored fused
// switch: the "fused" row keeps the name of the deleted path switch and
// must reproduce the default run bit for bit.
func TestRefinedComposesWithKernelVariants(t *testing.T) {
	p, spec := refineTestParams()
	ref, err := NewRefined(p, spec)
	if err != nil {
		t.Fatal(err)
	}
	ref.Run(3)
	want := refinedSnapshot(ref)
	for _, variant := range []struct {
		name   string
		mutate func(*Params)
	}{
		{"fused", func(p *Params) { p.Fused = true }},
	} {
		p2, spec2 := refineTestParams()
		variant.mutate(p2)
		s, err := NewRefined(p2, spec2)
		if err != nil {
			t.Fatalf("%s: %v", variant.name, err)
		}
		s.Run(3)
		refinedBitEqual(t, variant.name, want, refinedSnapshot(s))
	}
}

// The global-coordinate diagnostics must agree with the owning block
// in the slabs and reconstruct the coarse field faithfully in the
// bulk: the 3-point Lagrange interpolation is exact on fields that are
// quadratic in the coarse coordinates, which includes the constant
// fields of the fresh state.
func TestRefinedDiagnosticsFreshState(t *testing.T) {
	p, spec := refineTestParams()
	r, err := NewRefined(p, spec)
	if err != nil {
		t.Fatal(err)
	}
	uni, err := NewSim(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []int{0, 1} {
		for y := 0; y < p.NY; y++ {
			got := r.Density(c, 2, y, 3)
			want := uni.Density(c, 2, y, 3)
			if math.Abs(got-want) > 1e-12 {
				t.Errorf("fresh density comp %d at y=%d: refined %v, uniform %v", c, y, got, want)
			}
		}
	}
	prof := r.VelocityProfileY(2, 3)
	if len(prof) != p.NY {
		t.Fatalf("profile length %d, want %d", len(prof), p.NY)
	}
	for y, v := range prof {
		if math.Abs(v) > 1e-12 {
			t.Errorf("fresh velocity at y=%d: %v, want 0", y, v)
		}
	}
	if m := r.TotalMass(0); m <= 0 {
		t.Errorf("TotalMass(0) = %v", m)
	}
}

func TestMultiLevelGeometry(t *testing.T) {
	ml, err := field.NewMultiLevel(8, 20, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got := ml.FineNY(); got != 10 {
		t.Errorf("FineNY = %d, want 10", got)
	}
	if got := ml.CoarseOwnedRows(); got != 5 {
		t.Errorf("CoarseOwnedRows = %d, want 5", got)
	}
	cnx, cny, cnz := ml.CoarseDims()
	if cnx != 4 || cny != 11 || cnz != 5 {
		t.Errorf("CoarseDims = %d,%d,%d, want 4,11,5", cnx, cny, cnz)
	}
	if got := ml.TopSlabY0(); got != 10 {
		t.Errorf("TopSlabY0 = %d, want 10", got)
	}
	// Row maps: the first owned coarse row must cover the first two bulk
	// fine rows (D+1, D+2 in global coordinates), and the coarse z
	// columns tile the fine fluid columns exactly.
	if lo, hi := ml.CoarseRowFineRows(3); lo != 5 || hi != 6 {
		t.Errorf("CoarseRowFineRows(3) = %d,%d, want 5,6", lo, hi)
	}
	covered := map[int]bool{}
	for zc := 1; zc <= cnz-2; zc++ {
		lo, hi := ml.CoarseZFineZ(zc)
		covered[lo], covered[hi] = true, true
	}
	for z := 1; z <= 6; z++ {
		if !covered[z] {
			t.Errorf("fine z=%d not covered by coarse columns", z)
		}
	}
	if _, err := field.NewMultiLevel(8, 17, 8, 4); err == nil {
		t.Error("odd NY accepted")
	}
}

// The refined steady path must not allocate either: warmed up, the
// composite step runs the blocks' band wakes, renorm and the ghost
// exchange on preallocated state, at one worker and at three.
func TestRefinedStepParallelZeroAllocs(t *testing.T) {
	p, spec := refineTestParams()
	solver, err := NewRefined(p, spec)
	if err != nil {
		t.Fatal(err)
	}
	solver.SetWorkers(1)
	advance(t, solver, 3)
	if allocs := testing.AllocsPerRun(5, func() { solver.RunSupervised(1, nil) }); allocs != 0 {
		t.Errorf("refined RunSupervised(1, workers=1): %v allocs/op, want 0", allocs)
	}
	solver.SetWorkers(3)
	advance(t, solver, 3)
	if allocs := testing.AllocsPerRun(5, func() { solver.RunSupervised(1, nil) }); allocs != 0 {
		t.Errorf("refined RunSupervised(1, workers=3): %v allocs/op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(5, func() { solver.RunSupervised(2, nil) }); allocs != 0 {
		t.Errorf("refined RunSupervised(2, workers=3): %v allocs/op, want 0", allocs)
	}
}

// TestRefinedWallClosureRowsZero asserts the invariant the owned-row
// renormalization relies on (see maybeRenorm): after any number of
// composite steps, the real-wall and closure rows of every block hold
// only zeroed populations, so restricting the renorm rescale to owned
// rows is bit-identical to rescaling everything — the ghost rows it
// also skips are rebuilt from the rescaled owned rows by the exchange
// that follows. Checked at both precisions.
func TestRefinedWallClosureRowsZero(t *testing.T) {
	for _, prec := range []Precision{F64, F32} {
		p, spec := refineTestParams()
		p.Precision = prec
		solver, err := NewRefined(p, spec)
		if err != nil {
			t.Fatal(err)
		}
		solver.Run(5)
		st := solver.State()
		D := spec.WallLayers
		nb := (p.NY - 2 - 2*D) / 2
		rows := [3][]int{
			{0, D + 5},  // bottom slab: real wall, closure
			{0, D + 5},  // top slab: closure, real wall
			{0, nb + 5}, // coarse: closure, closure
		}
		for li, lv := range st.Levels {
			nz := lv.Params.NZ
			for _, y := range rows[li] {
				for c := range lv.F {
					for x := range lv.F[c] {
						plane := lv.F[c][x]
						for cell := y * nz; cell < (y+1)*nz; cell++ {
							for i := 0; i < lattice.Q19; i++ {
								if v := plane[cell*lattice.Q19+i]; v != 0 {
									t.Fatalf("prec=%v level %d row %d plane %d: population %v != 0",
										prec, li, y, x, v)
								}
							}
						}
					}
				}
			}
		}
	}
}
