package lbm

import (
	"fmt"
	"math"
	"runtime"
	"testing"
	"testing/quick"

	"microslip/internal/lattice"
)

func TestParamsValidate(t *testing.T) {
	good := WaterAir(16, 8, 6)
	if err := good.Validate(); err != nil {
		t.Fatalf("WaterAir params invalid: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Params)
	}{
		{"tiny domain", func(p *Params) { p.NY = 2 }},
		{"no components", func(p *Params) { p.Components = nil }},
		{"bad tau", func(p *Params) { p.Components[0].Tau = 0.5 }},
		{"bad mass", func(p *Params) { p.Components[0].Mass = 0 }},
		{"negative density", func(p *Params) { p.Components[1].InitDensity = -1 }},
		{"asymmetric G", func(p *Params) { p.G[0][1] = 0.1; p.G[1][0] = 0.2 }},
		{"G wrong shape", func(p *Params) { p.G = p.G[:1] }},
		{"wall comp out of range", func(p *Params) { p.WallForceComp = 5 }},
		{"bad decay", func(p *Params) { p.WallForceDecay = 0 }},
	}
	for _, tc := range cases {
		p := WaterAir(16, 8, 6)
		tc.mutate(p)
		if err := p.Validate(); err == nil {
			t.Errorf("%s: expected validation error", tc.name)
		}
	}
}

// A uniform mixture at rest with no forces at all is a fixed point of
// the update: the rest equilibrium is reflection-symmetric, so
// bounce-back walls return exactly what arrives. (With S-C coupling
// enabled the state near walls is *not* stationary, because solid
// neighbours contribute psi = 0 and create a density gradient — that is
// the physical wall interaction, exercised in TestFluidSlipEmerges.)
func TestUniformRestStateIsStationary(t *testing.T) {
	p := WaterAir(6, 8, 6)
	p.WallForceComp = -1
	p.BodyForce = [3]float64{}
	p.G = [][]float64{{0, 0}, {0, 0}}
	s, err := NewSim(p)
	if err != nil {
		t.Fatal(err)
	}
	before := make([]float64, len(s.f[0][2]))
	copy(before, s.f[0][2])
	s.Run(5)
	for i, v := range s.f[0][2] {
		if math.Abs(v-before[i]) > 1e-14 {
			t.Fatalf("rest state drifted at index %d: %v -> %v", i, before[i], v)
		}
	}
}

// Property: total mass of each component is conserved exactly (up to
// round-off) for random parameter draws, including wall and body forces.
func TestMassConservation(t *testing.T) {
	f := func(seed int64) bool {
		amp := 0.001 + math.Abs(float64(seed%7))*0.003
		g := 0.05 + math.Abs(float64(seed%5))*0.05
		p := WaterAir(8, 10, 6)
		p.WallForceAmp = amp
		p.G[0][1], p.G[1][0] = g, g
		s, err := NewSim(p)
		if err != nil {
			return false
		}
		m0 := [2]float64{s.TotalMass(0), s.TotalMass(1)}
		s.Run(10)
		for c := 0; c < 2; c++ {
			m := s.TotalMass(c)
			if math.Abs(m-m0[c]) > 1e-9*m0[c] {
				t.Logf("component %d mass %v -> %v", c, m0[c], m)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

// The serial reference Step builds its post-collision and density
// lattices on the first call; from the second call on it allocates only
// one collision scratch of a few dozen bytes, never a plane-length
// buffer.
func TestSerialStepAllocatesOnlyScratch(t *testing.T) {
	s, err := NewSim(WaterAir(64, 48, 16))
	if err != nil {
		t.Fatal(err)
	}
	s.Step()
	const steps = 3
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s.Run(steps)
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / steps; per >= 16<<10 {
		t.Errorf("serial Step allocated %d bytes per step, want < 16 KiB", per)
	}
}

// solidZeroParams is a small channel with an obstacle, adhesion and an
// x-dependent start, so every kind of solid neighbour is exercised.
func solidZeroParams() *Params {
	p := WaterAir(6, 12, 9)
	p.Obstacles = []Obstacle{{Y0: 5, Y1: 6, Z0: 3, Z1: 5}}
	p.WallAdhesion = []float64{0.2, -0.1}
	p.InitXWave = 0.1
	return p
}

// nonzeroSolid describes the first population of a solid cell in st
// that is not exactly zero, or returns "" when there is none.
func nonzeroSolid(st *State) string {
	mask := st.Params.Mask()
	nz := st.Params.NZ
	for c := range st.F {
		for x, plane := range st.F[c] {
			for cell := 0; cell < st.Params.NY*nz; cell++ {
				if !mask.IsSolid(cell/nz, cell%nz) {
					continue
				}
				for i, v := range plane[cell*lattice.Q19 : (cell+1)*lattice.Q19] {
					if v != 0 {
						return fmt.Sprintf("comp %d plane %d cell (%d,%d) population %d = %v", c, x, cell/nz, cell%nz, i, v)
					}
				}
			}
		}
	}
	return ""
}

// The kernel never writes a solid cell, so the lattice's solid
// populations must stay exactly zero from initialization on: after
// every step of every stepping path, and after a load from a snapshot
// that carried nonzero solid values.
func TestSolidCellsStayEmpty(t *testing.T) {
	// Each path returns its step and the snapshots to inspect.
	sim := func(t *testing.T, s *Sim, err error, chunks int) (func(), func() []*State) {
		if err != nil {
			t.Fatal(err)
		}
		step := s.Step
		if chunks > 0 {
			s.SetFusedChunks(chunks)
			step = func() { advance(t, s, 1) }
		}
		return step, func() []*State { return []*State{s.State()} }
	}
	paths := map[string]func(t *testing.T) (func(), func() []*State){
		"serial": func(t *testing.T) (func(), func() []*State) {
			s, err := NewSim(solidZeroParams())
			return sim(t, s, err, 0)
		},
		"one band": func(t *testing.T) (func(), func() []*State) {
			s, err := NewSim(solidZeroParams())
			return sim(t, s, err, 1)
		},
		"three bands": func(t *testing.T) (func(), func() []*State) {
			s, err := NewSim(solidZeroParams())
			return sim(t, s, err, 3)
		},
		"refined": func(t *testing.T) (func(), func() []*State) {
			r, err := NewRefined(refineTestParams())
			if err != nil {
				t.Fatal(err)
			}
			return func() { advance(t, r, 1) }, func() []*State {
				st := r.State()
				return st.Levels[:]
			}
		},
		"loaded": func(t *testing.T) (func(), func() []*State) {
			s, err := NewSim(solidZeroParams())
			if err != nil {
				t.Fatal(err)
			}
			// A hand-built snapshot with nonzero wall and obstacle
			// cells: the load must not bring them in.
			st := s.State()
			st.F[0][1][3] = 0.5
			st.F[1][2][(5*9+4)*lattice.Q19+7] = -0.25
			s, err = FromState(st)
			return sim(t, s, err, 1)
		},
	}
	for name, build := range paths {
		t.Run(name, func(t *testing.T) {
			step, states := build(t)
			for n := 0; n <= 6; n++ {
				if n > 0 {
					step()
				}
				for _, st := range states() {
					if bad := nonzeroSolid(st); bad != "" {
						t.Fatalf("after %d steps: %s", n, bad)
					}
				}
			}
		})
	}
}

func Test3DDuctFlowMatchesAnalytic(t *testing.T) {
	if testing.Short() {
		t.Skip("duct flow validation needs thousands of steps")
	}
	const (
		nx, ny, nz = 4, 23, 15
		tau        = 1.0
		gx         = 1e-6
	)
	p := SingleFluid(nx, ny, nz, tau, gx)
	s, err := NewSim(p)
	if err != nil {
		t.Fatal(err)
	}
	s.Run(6000)
	if err := s.CheckFinite(); err != nil {
		t.Fatal(err)
	}
	nu := (tau - 0.5) / 3
	a := (float64(ny) - 2) / 2 // fluid half-width, walls at halfway planes
	b := (float64(nz) - 2) / 2
	yc := float64(ny-1) / 2
	zc := float64(nz-1) / 2
	var num, den float64
	for y := 1; y < ny-1; y++ {
		for z := 1; z < nz-1; z++ {
			ux, _, _ := s.Velocity(0, y, z)
			ux += 0.5 * gx // half-force correction for the S-C shift forcing
			want := DuctExact(float64(y)-yc, float64(z)-zc, a, b, gx, nu)
			num += (ux - want) * (ux - want)
			den += want * want
		}
	}
	rel := math.Sqrt(num / den)
	if rel > 0.03 {
		t.Errorf("3-D duct relative L2 error %.4f > 3%%", rel)
	}
}

// The headline physics of the paper (Figures 6 and 7): hydrophobic wall
// forces deplete the water and enrich the air/vapor near the walls, and
// the streamwise velocity acquires apparent slip relative to the
// force-free case.
func TestFluidSlipEmerges(t *testing.T) {
	if testing.Short() {
		t.Skip("slip experiment needs a few thousand steps")
	}
	run := func(withWallForce bool) *Sim {
		p := WaterAir(4, 42, 12)
		if !withWallForce {
			p.WallForceComp = -1
		}
		s, err := NewSim(p)
		if err != nil {
			t.Fatal(err)
		}
		s.Run(4000)
		if err := s.CheckFinite(); err != nil {
			t.Fatal(err)
		}
		return s
	}
	forced := run(true)
	free := run(false)

	zc := forced.P.NZ / 2
	yc := forced.P.NY / 2
	// (a) water depleted at the first fluid node vs the channel center.
	wWall := forced.Density(0, 0, 1, zc)
	wBulk := forced.Density(0, 0, yc, zc)
	if wWall >= 0.97*wBulk {
		t.Errorf("no water depletion: wall %.4f vs bulk %.4f", wWall, wBulk)
	}
	// (b) air enriched at the wall.
	aWall := forced.Density(1, 0, 1, zc)
	aBulk := forced.Density(1, 0, yc, zc)
	if aWall <= 1.03*aBulk {
		t.Errorf("no air enrichment: wall %.5f vs bulk %.5f", aWall, aBulk)
	}
	// (c) apparent slip: normalized near-wall velocity exceeds the
	// force-free case.
	fWallU := forced.VelocityProfileY(0, zc)
	fFreeU := free.VelocityProfileY(0, zc)
	uf := fWallU[1] / fWallU[yc]
	u0 := fFreeU[1] / fFreeU[yc]
	if uf <= u0 {
		t.Errorf("no apparent slip: normalized near-wall velocity %.4f (forced) vs %.4f (free)", uf, u0)
	}
}

func TestCheckFinite(t *testing.T) {
	p := WaterAir(4, 6, 6)
	s, err := NewSim(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CheckFinite(); err != nil {
		t.Fatalf("fresh sim not finite: %v", err)
	}
	s.f[1][2][17] = math.NaN()
	if err := s.CheckFinite(); err == nil {
		t.Error("CheckFinite missed an injected NaN")
	}
}

func TestVelocityProfileSymmetry(t *testing.T) {
	p := SingleFluid(4, 19, 9, 1.0, 1e-6)
	s, err := NewSim(p)
	if err != nil {
		t.Fatal(err)
	}
	s.Run(300)
	prof := s.VelocityProfileY(0, p.NZ/2)
	for y := 1; y < p.NY/2; y++ {
		if math.Abs(prof[y]-prof[p.NY-1-y]) > 1e-12 {
			t.Errorf("profile asymmetric at y=%d: %v vs %v", y, prof[y], prof[p.NY-1-y])
		}
	}
}

func TestKernelDensities(t *testing.T) {
	p := WaterAir(4, 6, 6)
	k := NewKernel(p)
	f := [][]float64{make([]float64, k.PlaneLen()), make([]float64, k.PlaneLen())}
	for i := range f[0] {
		f[0][i] = 1
		f[1][i] = 0.5
	}
	n := [][]float64{make([]float64, k.PlaneCells()), make([]float64, k.PlaneCells())}
	k.Densities(f, n)
	for cell := 0; cell < k.PlaneCells(); cell++ {
		if n[0][cell] != 19 || n[1][cell] != 9.5 {
			t.Fatalf("cell %d densities %v %v, want 19 9.5", cell, n[0][cell], n[1][cell])
		}
	}
}
