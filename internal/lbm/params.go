// Package lbm implements the multicomponent lattice Boltzmann method of
// the paper (Section 2): the Shan-Chen (S-C) model on a D3Q19 lattice
// with BGK collision, interparticle interaction between components,
// exponentially decaying hydrophobic wall forces acting on the water
// component, a body force driving the channel flow, and full-way
// bounce-back walls.
//
// The kernels operate on single x-planes so that the sequential solver
// (Sim) and the domain-decomposed parallel solver (package parlbm) run
// exactly the same arithmetic; their results agree bit-for-bit.
//
// A solver, uniform (Solver) or two-level refined (RefinedSolver),
// advances time three ways, all declared by their common Stepper core:
// Step and Run, the strictly serial three-pass reference every other
// path is tested against, and RunSupervised, the production path — the
// fused collide+stream sweep in place over bands of x-planes, checked
// against a runctl.Supervisor (nil for none) at every step boundary.
// RunToSteady layers the paper's steady-state stopping rule on
// RunSupervised for any Stepper.
package lbm

import (
	"fmt"
	"math"

	"microslip/internal/geometry"
)

// Precision selects the scalar type of the solver core and the wire
// format of the parallel layer. The zero value is F64, so parameter
// sets from older checkpoints and configs keep their double-precision
// behaviour unchanged.
type Precision uint8

const (
	// F64 runs every kernel in double precision (the historical,
	// bit-identity-tested default).
	F64 Precision = iota
	// F32 runs the sequential core in single precision and makes the
	// distributed solver ship float32 halo/frame/migration payloads
	// (two values per float64 word) while still computing in double
	// precision; checkpoints store float32 payloads. Halves memory
	// bandwidth and comm volume at ~1e-7 relative rounding per op.
	F32
)

// String returns the spelling job specs and reports use ("f64"/"f32").
func (p Precision) String() string {
	switch p {
	case F64:
		return "f64"
	case F32:
		return "f32"
	default:
		return fmt.Sprintf("precision(%d)", uint8(p))
	}
}

// ParsePrecision converts that spelling back to a Precision; the empty
// string is F64.
func ParsePrecision(s string) (Precision, error) {
	switch s {
	case "f64", "float64", "":
		return F64, nil
	case "f32", "float32":
		return F32, nil
	default:
		return F64, fmt.Errorf("lbm: unknown precision %q (want f32 or f64)", s)
	}
}

// Component describes one fluid component of the S-C model.
type Component struct {
	Name        string
	Tau         float64 // BGK relaxation time
	Mass        float64 // molecular mass m_sigma
	InitDensity float64 // uniform initial number density
}

// Params configures a multicomponent simulation.
type Params struct {
	NX, NY, NZ int
	Components []Component
	// G is the symmetric component-interaction matrix g_{sigma sigma'}
	// of the S-C interparticle potential; positive entries are
	// repulsive. Indexed [sigma][sigma'].
	G [][]float64
	// WallForceAmp is the nondimensional hydrophobic wall force
	// amplitude (the paper uses 0.2); WallForceDecay its decay length in
	// lattice units; WallForceComp the index of the component it repels
	// (the water), or -1 to disable.
	WallForceAmp   float64
	WallForceDecay float64
	WallForceComp  int
	// WallWindow, when non-nil, evaluates the wall force at global fine
	// coordinates instead of local indices: the domain is one level of a
	// refined grid (a fine wall slab or the coarse bulk), and its force
	// profile must come from the true wall distances of the enclosing
	// channel, with the window's Scale factor converting the fine-units
	// acceleration to the level's own lattice units. Nil (the default)
	// keeps the local profile; uniform grids never set it.
	WallWindow *geometry.WallForceWindow
	// BodyForce is the driving acceleration (gx, gy, gz) applied to all
	// components; the paper's pressure-driven flow is equivalent to a
	// uniform body force along x in a periodic channel.
	BodyForce [3]float64
	// Obstacles lists additional solid rectangles stamped into every
	// x-plane (the mask must stay x-independent so slice decomposition
	// and plane migration remain valid): ribs, grooves, and posts for
	// MEMS-like geometries. Coordinates are inclusive and clamped to
	// the domain.
	Obstacles []Obstacle
	// WallAdhesion is the alternative (Martys-Chen style) solid-fluid
	// interaction: component sigma feels the force
	//
	//	F_ads = -WallAdhesion[sigma] * rho_sigma(x) * sum_i w_i s(x+e_i) e_i
	//
	// where s is the solid indicator. Positive entries repel the
	// component from all solid surfaces (including obstacles), an
	// alternative way to model hydrophobicity to the paper's explicit
	// exponential wall force; negative entries wet the surface. Nil or
	// zero disables.
	WallAdhesion []float64
	// InitXWave modulates the initial number densities along x: plane x
	// starts from density InitDensity * (1 + InitXWave*cos(2*pi*x/NX)).
	// Zero (the default) keeps the paper's uniform rest initial
	// condition. A small positive amplitude makes the initial state
	// x-dependent while staying periodic in x; the bit-identity tests
	// use it to make any halo-routing mistake (a swapped or stale ghost
	// plane) visible, which a uniform start masks forever. Must lie in
	// [0, 1) so densities stay positive.
	InitXWave float64
	// RhoMin guards divisions by the local density.
	RhoMin float64
	// Precision selects the scalar type of the solver core (see the
	// Precision constants). Construct precision-dispatched solvers with
	// NewSolver; NewSim remains the double-precision constructor and
	// rejects F32 parameter sets.
	Precision Precision
	// Fused is accepted and ignored: RunSupervised always runs the fused
	// collide+stream sweep, in place, and the serial reference Step never
	// did. Kept so parameter sets and configs that still set it compile
	// and decode.
	Fused bool
}

// Obstacle is a solid rectangle [Y0,Y1] x [Z0,Z1] present in every
// x-plane.
type Obstacle struct {
	Y0, Y1, Z0, Z1 int
}

// Validate checks internal consistency.
func (p *Params) Validate() error {
	if p.NX < 1 || p.NY < 3 || p.NZ < 3 {
		return fmt.Errorf("lbm: domain %dx%dx%d too small", p.NX, p.NY, p.NZ)
	}
	if len(p.Components) == 0 {
		return fmt.Errorf("lbm: no components")
	}
	for i, c := range p.Components {
		if c.Tau <= 0.5 {
			return fmt.Errorf("lbm: component %d tau %v must exceed 0.5", i, c.Tau)
		}
		if c.Mass <= 0 {
			return fmt.Errorf("lbm: component %d mass %v must be positive", i, c.Mass)
		}
		if c.InitDensity < 0 {
			return fmt.Errorf("lbm: component %d negative init density", i)
		}
	}
	if len(p.G) != len(p.Components) {
		return fmt.Errorf("lbm: G is %dx?, want %d rows", len(p.G), len(p.Components))
	}
	for i, row := range p.G {
		if len(row) != len(p.Components) {
			return fmt.Errorf("lbm: G row %d has %d entries, want %d", i, len(row), len(p.Components))
		}
		for j := range row {
			if p.G[i][j] != p.G[j][i] {
				return fmt.Errorf("lbm: G not symmetric at (%d,%d)", i, j)
			}
		}
	}
	if p.WallForceComp >= len(p.Components) {
		return fmt.Errorf("lbm: wall force component %d out of range", p.WallForceComp)
	}
	if p.WallForceComp >= 0 && p.WallForceDecay <= 0 {
		return fmt.Errorf("lbm: wall force decay %v must be positive", p.WallForceDecay)
	}
	if w := p.WallWindow; w != nil {
		if w.Scale <= 0 {
			return fmt.Errorf("lbm: wall window scale %v must be positive", w.Scale)
		}
		if w.GlobalNY < 3 || w.GlobalNZ < 3 {
			return fmt.Errorf("lbm: wall window global dims %dx%d too small", w.GlobalNY, w.GlobalNZ)
		}
	}
	for i, o := range p.Obstacles {
		if o.Y1 < o.Y0 || o.Z1 < o.Z0 {
			return fmt.Errorf("lbm: obstacle %d is empty: %+v", i, o)
		}
	}
	if p.WallAdhesion != nil && len(p.WallAdhesion) != len(p.Components) {
		return fmt.Errorf("lbm: %d wall adhesion entries for %d components", len(p.WallAdhesion), len(p.Components))
	}
	if p.Mask().FluidCount() == 0 {
		return fmt.Errorf("lbm: obstacles leave no fluid cells")
	}
	if p.RhoMin < 0 {
		return fmt.Errorf("lbm: negative RhoMin")
	}
	if p.InitXWave < 0 || p.InitXWave >= 1 {
		return fmt.Errorf("lbm: InitXWave %v outside [0, 1)", p.InitXWave)
	}
	if p.Precision != F64 && p.Precision != F32 {
		return fmt.Errorf("lbm: invalid precision %d", uint8(p.Precision))
	}
	return nil
}

// InitDensityAt returns the initial number density of component c at
// global plane x: the component's InitDensity, modulated along x when
// InitXWave is set. Every solver initializes plane x through this one
// function, so the parallel decompositions start from bit-identical
// fields.
func (p *Params) InitDensityAt(c, x int) float64 {
	d := p.Components[c].InitDensity
	if p.InitXWave != 0 {
		d *= 1 + p.InitXWave*math.Cos(2*math.Pi*float64(x)/float64(p.NX))
	}
	return d
}

// NComp returns the number of components.
func (p *Params) NComp() int { return len(p.Components) }

// Channel returns the channel geometry for the parameter set.
func (p *Params) Channel() geometry.Channel {
	return geometry.NewChannel(p.NX, p.NY, p.NZ)
}

// Mask returns the per-plane solid mask: the channel walls plus any
// stamped obstacles.
func (p *Params) Mask() *geometry.Mask {
	m := geometry.NewMask(p.Channel())
	for _, o := range p.Obstacles {
		m.StampRect(o.Y0, o.Y1, o.Z0, o.Z1)
	}
	return m
}

// WaterAir returns the paper's two-component water + air/vapor setup for
// an NX x NY x NZ channel: water relaxation tau=1, dilute air component,
// repulsive cross coupling, hydrophobic wall force 0.2 on the water with
// a 2-lattice-unit (10 nm) decay, and a small body force driving the
// streamwise flow.
func WaterAir(nx, ny, nz int) *Params {
	return &Params{
		NX: nx, NY: ny, NZ: nz,
		Components: []Component{
			{Name: "water", Tau: 1.0, Mass: 1.0, InitDensity: 1.0},
			{Name: "air", Tau: 1.0, Mass: 1.0, InitDensity: 0.05},
		},
		G: [][]float64{
			{0.0, 0.3},
			{0.3, 0.0},
		},
		WallForceAmp:   0.2,
		WallForceDecay: 2.0,
		WallForceComp:  0,
		BodyForce:      [3]float64{1e-5, 0, 0},
		RhoMin:         1e-12,
	}
}

// SingleFluid returns a one-component setup (no S-C interaction, no wall
// force) with the given relaxation time and driving force, used for
// validation against analytic channel-flow solutions.
func SingleFluid(nx, ny, nz int, tau, gx float64) *Params {
	return &Params{
		NX: nx, NY: ny, NZ: nz,
		Components:    []Component{{Name: "fluid", Tau: tau, Mass: 1.0, InitDensity: 1.0}},
		G:             [][]float64{{0}},
		WallForceComp: -1,
		BodyForce:     [3]float64{gx, 0, 0},
		RhoMin:        1e-12,
	}
}

// DuctExact evaluates the analytic steady velocity for pressure-driven
// flow in a rectangular duct (White, Viscous Fluid Flow) at (yy, zz)
// from the duct centre: half-widths a (y) and b (z), body acceleration
// g, kinematic viscosity nu. It is the series solution a SingleFluid
// channel converges to.
func DuctExact(yy, zz, a, b, g, nu float64) float64 {
	u := (yy + a) * (a - yy) // parallel-plate base profile * g/2nu
	var corr float64
	for k := 1; k < 400; k += 2 {
		kf := float64(k)
		sign := 1.0
		if (k/2)%2 == 1 {
			sign = -1
		}
		term := sign / (kf * kf * kf) *
			math.Cos(kf*math.Pi*yy/(2*a)) *
			math.Cosh(kf*math.Pi*zz/(2*a)) / math.Cosh(kf*math.Pi*b/(2*a))
		corr += term
	}
	return g / (2 * nu) * (u - 32*a*a/(math.Pi*math.Pi*math.Pi)*corr)
}
