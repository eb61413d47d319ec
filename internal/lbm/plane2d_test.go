package lbm

import (
	"math"
	"testing"
)

// The tests below run the 3-D solver as a 2-D model: a single x-plane
// (NX = 1, periodic onto itself), so every field depends on (y, z) only
// and the streamwise flow is x-uniform, as in a 2-D channel model.

// A one-plane channel is a valid configuration, and the parameter
// checks refuse the same mistakes on it as on a wider one.
func TestParams2DValidate(t *testing.T) {
	if err := WaterAir(1, 24, 16).Validate(); err != nil {
		t.Fatalf("one-plane params invalid: %v", err)
	}
	if _, err := NewSolver(WaterAir(1, 24, 16)); err != nil {
		t.Fatalf("one-plane solver: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Params)
	}{
		{"no plane", func(p *Params) { p.NX = 0 }},
		{"tiny height", func(p *Params) { p.NY = 2 }},
		{"tiny width", func(p *Params) { p.NZ = 2 }},
		{"no components", func(p *Params) { p.Components = nil }},
		{"bad tau", func(p *Params) { p.Components[0].Tau = 0.4 }},
		{"G wrong shape", func(p *Params) { p.G = p.G[:1] }},
		{"asymmetric G", func(p *Params) { p.G[0][1] = 9 }},
		{"wall comp out of range", func(p *Params) { p.WallForceComp = 4 }},
		{"bad decay", func(p *Params) { p.WallForceDecay = 0 }},
	}
	for _, tc := range cases {
		p := WaterAir(1, 24, 16)
		tc.mutate(p)
		if err := p.Validate(); err == nil {
			t.Errorf("%s: expected validation error", tc.name)
		}
	}
}

// Each component's mass is conserved on one plane, and that plane
// evolves exactly as every plane of a wider x-uniform channel does:
// streaming across the periodic x boundary onto itself loses and
// invents nothing.
func TestMulti2DMassConservation(t *testing.T) {
	s, err := NewSim(WaterAir(1, 24, 12))
	if err != nil {
		t.Fatal(err)
	}
	wide, err := NewSim(WaterAir(3, 24, 12))
	if err != nil {
		t.Fatal(err)
	}
	m0 := [2]float64{s.TotalMass(0), s.TotalMass(1)}
	s.Run(50)
	wide.Run(50)
	for c := 0; c < 2; c++ {
		if m := s.TotalMass(c); math.Abs(m-m0[c]) > 1e-9*m0[c] {
			t.Errorf("2-D component %d mass %v -> %v", c, m0[c], m)
		}
	}
	if err := s.CheckFinite(); err != nil {
		t.Fatal(err)
	}
	for c := 0; c < 2; c++ {
		for x := 0; x < wide.P.NX; x++ {
			a, b := s.Plane(c, 0), wide.Plane(c, x)
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("comp %d: wide plane %d index %d = %v, one-plane %v", c, x, i, b[i], a[i])
				}
			}
		}
	}
}

// The 2-D model shows the slip physics of the 3-D one: water
// depletion, air enrichment, and apparent slip versus the force-free
// run, read across the y walls at mid-z of a cross-section twice as
// wide as it is high.
func TestMulti2DSlipEmerges(t *testing.T) {
	run := func(withForce bool) *Sim {
		p := WaterAir(1, 16, 32)
		if !withForce {
			p.WallForceComp = -1
		}
		s, err := NewSim(p)
		if err != nil {
			t.Fatal(err)
		}
		s.Run(2500)
		if err := s.CheckFinite(); err != nil {
			t.Fatal(err)
		}
		return s
	}
	forced := run(true)
	free := run(false)
	yc, zc := forced.P.NY/2, forced.P.NZ/2
	if w, b := forced.Density(0, 0, 1, zc), forced.Density(0, 0, yc, zc); w >= 0.95*b {
		t.Errorf("no 2-D water depletion: wall %.4f bulk %.4f", w, b)
	}
	if a, b := forced.Density(1, 0, 1, zc), forced.Density(1, 0, yc, zc); a <= 1.05*b {
		t.Errorf("no 2-D air enrichment: wall %.5f bulk %.5f", a, b)
	}
	fu, u0p := forced.VelocityProfileY(0, zc), free.VelocityProfileY(0, zc)
	if uf, u0 := fu[1]/fu[yc], u0p[1]/u0p[yc]; uf <= u0 {
		t.Errorf("no 2-D slip: %.4f (forced) vs %.4f (free)", uf, u0)
	}
}

// Across the y walls at mid-z of a cross-section four times wider than
// high, the steady body-force-driven flow is the plane Poiseuille
// parabola u(y) = g/(2 nu) (a^2 - y^2) to within 1 %: the z walls bend
// it by about 0.3 % there (DuctExact's series term).
func Test2DPoiseuilleMatchesAnalytic(t *testing.T) {
	const (
		ny, nz = 15, 55
		tau    = 0.8
		gx     = 1e-6
	)
	s, err := NewSim(SingleFluid(1, ny, nz, tau, gx))
	if err != nil {
		t.Fatal(err)
	}
	s.Run(2000)
	if err := s.CheckFinite(); err != nil {
		t.Fatal(err)
	}
	nu := (tau - 0.5) / 3
	a := (float64(ny) - 2) / 2 // fluid half-height, walls at halfway planes
	yc := float64(ny-1) / 2
	var num, den float64
	for y := 1; y < ny-1; y++ {
		ux, _, _ := s.Velocity(0, y, nz/2)
		ux += 0.5 * gx // half-force correction for the S-C shift forcing
		yy := float64(y) - yc
		want := gx / (2 * nu) * (a*a - yy*yy)
		num += (ux - want) * (ux - want)
		den += want * want
	}
	if rel := math.Sqrt(num / den); rel > 0.01 {
		t.Errorf("2-D Poiseuille relative L2 error %.4f > 1%%", rel)
	}
	// Mass is conserved: one unit on every fluid cell.
	if m, want := s.TotalMass(0), float64((ny-2)*(nz-2)); math.Abs(m-want) > 1e-6 {
		t.Errorf("2-D total mass %v, want %v", m, want)
	}
}
