package lbm

import (
	"fmt"
	"math"
	"testing"

	"microslip/internal/lattice"
)

// oracle is a textbook whole-array D3Q19 Shan-Chen solver, written from
// the model's equations (DESIGN.md section 5) and not from kernel.go: one
// flat f[c][x][y][z][i] array, its own velocity set and bounce-back, and
// the loop order of a plain LBM code — stream, density, velocity,
// collision. It is slow and obvious on purpose, so the production kernel
// is free to reassociate, hoist and fuse as long as it agrees.
type oracle struct {
	p          *Params
	nx, ny, nz int
	e          [lattice.Q19][3]int
	w          [lattice.Q19]float64
	solid      []bool    // per y*nz+z
	f, next    []float64 // [c][x][y][z][i]
	n          []float64 // [c][x][y][z]
}

func newOracle(p *Params) *oracle {
	o := &oracle{p: p, nx: p.NX, ny: p.NY, nz: p.NZ}
	// Rest, the six faces, the twelve edges; the weight follows |e|^2.
	q := 0
	for sq, w := range []float64{1.0 / 3, 1.0 / 18, 1.0 / 36} {
		for ex := -1; ex <= 1; ex++ {
			for ey := -1; ey <= 1; ey++ {
				for ez := -1; ez <= 1; ez++ {
					if ex*ex+ey*ey+ez*ez == sq {
						o.e[q], o.w[q] = [3]int{ex, ey, ez}, w
						q++
					}
				}
			}
		}
	}
	mask := p.Mask()
	o.solid = make([]bool, o.ny*o.nz)
	for y := 0; y < o.ny; y++ {
		for z := 0; z < o.nz; z++ {
			o.solid[y*o.nz+z] = mask.IsSolid(y, z)
		}
	}
	cells := p.NComp() * o.nx * o.ny * o.nz
	o.f, o.next, o.n = make([]float64, cells*lattice.Q19), make([]float64, cells*lattice.Q19), make([]float64, cells)
	o.fluid(func(x, y, z int) {
		for c := 0; c < p.NComp(); c++ {
			for i := range o.e { // the rest equilibrium, f_i = w_i n
				o.f[o.cell(c, x, y, z)*lattice.Q19+i] = o.w[i] * p.InitDensityAt(c, x)
			}
		}
	})
	return o
}

func (o *oracle) cell(c, x, y, z int) int { return ((c*o.nx+x)*o.ny+y)*o.nz + z }

// fluid calls fn for every fluid cell.
func (o *oracle) fluid(fn func(x, y, z int)) {
	for x := 0; x < o.nx; x++ {
		for y := 0; y < o.ny; y++ {
			for z := 0; z < o.nz; z++ {
				if !o.solid[y*o.nz+z] {
					fn(x, y, z)
				}
			}
		}
	}
}

// stream pushes every population one link along e_i, periodic in x; a
// population heading into a solid cell returns to its own cell reversed
// (full-way bounce-back).
func (o *oracle) stream() {
	clear(o.next)
	o.fluid(func(x, y, z int) {
		for c := 0; c < o.p.NComp(); c++ {
			for i, e := range o.e {
				v := o.f[o.cell(c, x, y, z)*lattice.Q19+i]
				tx, ty, tz := (x+e[0]+o.nx)%o.nx, y+e[1], z+e[2]
				if !o.solid[ty*o.nz+tz] {
					o.next[o.cell(c, tx, ty, tz)*lattice.Q19+i] = v
					continue
				}
				for j, r := range o.e {
					if r == [3]int{-e[0], -e[1], -e[2]} {
						o.next[o.cell(c, x, y, z)*lattice.Q19+j] = v
					}
				}
			}
		}
	})
	o.f, o.next = o.next, o.f
}

// psi is the interaction potential of component c at (x, y, z): the
// mass density, zero inside solids, periodic in x.
func (o *oracle) psi(c, x, y, z int) float64 {
	if o.solid[y*o.nz+z] {
		return 0
	}
	return o.p.Components[c].Mass * o.n[o.cell(c, (x+o.nx)%o.nx, y, z)]
}

// collide computes the densities, the common velocity
// u' = sum_s (rho_s u_s / tau_s) / sum_s (rho_s / tau_s), each
// component's force (S-C interaction with psi = rho, the wall force on
// the water, adhesion, body force) and relaxes toward the equilibrium
// at u' + tau_s F_s / rho_s.
func (o *oracle) collide() {
	p := o.p
	clear(o.n)
	o.fluid(func(x, y, z int) {
		for c := 0; c < p.NComp(); c++ {
			for i := range o.e {
				o.n[o.cell(c, x, y, z)] += o.f[o.cell(c, x, y, z)*lattice.Q19+i]
			}
		}
	})
	o.fluid(func(x, y, z int) {
		var mom [3]float64
		var den float64
		for c, comp := range p.Components {
			for i, e := range o.e {
				for a := 0; a < 3; a++ {
					mom[a] += comp.Mass / comp.Tau * o.f[o.cell(c, x, y, z)*lattice.Q19+i] * float64(e[a])
				}
			}
			den += comp.Mass / comp.Tau * o.n[o.cell(c, x, y, z)]
		}
		for c, comp := range p.Components {
			n := o.n[o.cell(c, x, y, z)]
			rho := comp.Mass * n
			var force [3]float64
			for i, e := range o.e {
				for c2 := range p.Components {
					for a := 0; a < 3; a++ {
						force[a] -= rho * p.G[c][c2] * o.w[i] * o.psi(c2, x+e[0], y+e[1], z+e[2]) * float64(e[a])
					}
				}
				if len(p.WallAdhesion) > 0 && o.solid[(y+e[1])*o.nz+z+e[2]] {
					for a := 0; a < 3; a++ {
						force[a] -= p.WallAdhesion[c] * rho * o.w[i] * float64(e[a])
					}
				}
			}
			if c == p.WallForceComp {
				// A exp(-d/lambda) from each wall plane, which sits halfway
				// into the wall layer, pointing into the fluid.
				wall := func(r, size int) float64 {
					lo, hi := float64(r)-0.5, float64(size-1)-0.5-float64(r)
					return p.WallForceAmp * (math.Exp(-lo/p.WallForceDecay) - math.Exp(-hi/p.WallForceDecay))
				}
				force[1] += rho * wall(y, o.ny)
				force[2] += rho * wall(z, o.nz)
			}
			var u [3]float64
			for a := 0; a < 3; a++ {
				force[a] += rho * p.BodyForce[a]
				u[a] = mom[a]/den + comp.Tau*force[a]/rho
			}
			usq := u[0]*u[0] + u[1]*u[1] + u[2]*u[2]
			for i, e := range o.e {
				eu := float64(e[0])*u[0] + float64(e[1])*u[1] + float64(e[2])*u[2]
				feq := o.w[i] * n * (1 + 3*eu + 4.5*eu*eu - 1.5*usq)
				f := &o.f[o.cell(c, x, y, z)*lattice.Q19+i]
				*f -= (*f - feq) / comp.Tau
			}
		}
	})
}

// run advances n solver steps. The textbook loop streams first while
// the solver's step collides first, so n solver steps are one
// collision, n-1 textbook steps and a closing stream.
func (o *oracle) run(n int) {
	o.collide()
	for s := 1; s < n; s++ {
		o.stream()
		o.collide()
	}
	o.stream()
}

// The serial reference Step against the textbook oracle: 50 steps of
// the two-component model on two grid sizes, with the wall force on and
// off, adhesion of both signs, an obstacle and a body force with all
// three components. Every population must agree to 1e-12 relative.
func TestStepMatchesTextbookOracle(t *testing.T) {
	const steps, tol = 50, 1e-12
	cases := map[string]func() *Params{
		"wall-force/8x12x6": func() *Params {
			p := WaterAir(8, 12, 6)
			p.InitXWave = 0.1
			return p
		},
		"wall-force/16x24x8": func() *Params { return WaterAir(16, 24, 8) },
		"adhesion+obstacle/8x12x6": func() *Params {
			p := WaterAir(8, 12, 6)
			p.WallAdhesion = []float64{-0.2, 0.3}
			p.Obstacles = []Obstacle{{Y0: 5, Y1: 6, Z0: 2, Z1: 3}}
			p.BodyForce = [3]float64{1e-5, 2e-6, -1e-6}
			return p
		},
		"no-wall-force/adhesion+obstacle/16x24x8": func() *Params {
			p := WaterAir(16, 24, 8)
			p.WallForceComp = -1
			p.WallAdhesion = []float64{0.3, -0.2}
			p.Obstacles = []Obstacle{{Y0: 10, Y1: 13, Z0: 3, Z1: 4}}
			p.InitXWave = 0.2
			return p
		},
	}
	for name, mk := range cases {
		t.Run(name, func(t *testing.T) {
			p := mk()
			s, err := NewSim(p)
			if err != nil {
				t.Fatal(err)
			}
			s.Run(steps)
			o := newOracle(p)
			o.run(steps)
			var worst float64
			var where string
			for q, e := range o.e {
				j := 0 // the solver's index of direction e
				for lattice.Ex[j] != e[0] || lattice.Ey[j] != e[1] || lattice.Ez[j] != e[2] {
					j++
				}
				for c := 0; c < p.NComp(); c++ {
					for x := 0; x < p.NX; x++ {
						plane := s.Plane(c, x)
						for cell := 0; cell < p.NY*p.NZ; cell++ {
							got := plane[cell*lattice.Q19+j]
							want := o.f[o.cell(c, x, 0, 0)*lattice.Q19+cell*lattice.Q19+q]
							if d := math.Abs(got - want); d > tol*math.Abs(want) && d > worst {
								worst, where = d, fmt.Sprintf("comp %d x %d cell %d dir %v: %v vs oracle %v", c, x, cell, e, got, want)
							}
						}
					}
				}
			}
			if where != "" {
				t.Errorf("Step departs from the oracle beyond %g relative; worst at %s", tol, where)
			}
		})
	}
}
