package lbm

import (
	"fmt"

	"microslip/internal/lattice"
	"microslip/internal/num"
)

// SimOf is the sequential multicomponent LBM solver at scalar precision
// T. It keeps per-x-plane storage (the same layout the parallel workers
// use) and is the reference implementation the parallel solver is tested
// against. The float64 instantiation is the Sim alias; the float32
// instantiation is the reduced-precision core selected by
// Params.Precision (construct via NewSolver to dispatch on it).
type SimOf[T num.Float] struct {
	P *Params
	K *KernelOf[T]

	// f[c][x] is the distribution plane of component c at x: the one
	// lattice the solver holds, advanced in place by every stepping path.
	// fView[x][c] is its transposed per-plane view, the form the kernels
	// take.
	f, fView [][][]T
	step     int
	workers  int // intra-node parallelism for RunSupervised
	// post[x][c] and n[x][c] are the serial Step's post-collision and
	// density lattices, built on its first call: only callers of the
	// reference path pay for a second lattice.
	post, n [][][]T
	// bands is the lazily built banding of the stepping path.
	bands *bandSet[T]
	// fusedChunks, when positive, pins the band count, bypassing the
	// minimum-planes-per-band heuristic; tests use it to exercise
	// multi-band sweeps on any machine.
	fusedChunks int
	// bandHook, when set, is called (band, step) at the top of every
	// band-step — concurrently from the band workers, and with band 0 on
	// the single-band path. Fault injection and supervision tests hang
	// off it; see SetBandHook.
	bandHook func(band, step int)
}

// Sim is the double-precision sequential solver used by the parallel
// layer's reference comparisons and all historical call sites.
type Sim = SimOf[float64]

// NewSimOf allocates and initializes a sequential simulation at
// precision T: a uniform water/air mixture at rest (the paper's initial
// condition). T must agree with p.Precision so a parameter set never
// silently runs at the wrong precision.
func NewSimOf[T num.Float](p *Params) (*SimOf[T], error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if (p.Precision == F32) != isSingle[T]() {
		var zero T
		return nil, fmt.Errorf("lbm: solver type %T does not match Params.Precision %v", zero, p.Precision)
	}
	k := NewKernelOf[T](p)
	s := &SimOf[T]{P: p, K: k}
	s.fView = newPlanes[T](p.NX, p.NComp(), k.PlaneLen())
	s.f = transposeViews(s.fView, p.NComp(), p.NX)
	for x, planes := range s.fView {
		for c, f := range planes {
			k.InitEquilibrium(f, p.InitDensityAt(c, x))
		}
	}
	return s, nil
}

// isSingle reports whether T is single precision, by probing whether it
// resolves 1 + 2^-40 (representable in float64, rounded away in
// float32). A value probe rather than a type switch so named types with
// a float32 underlying type classify correctly.
func isSingle[T num.Float]() bool {
	const probe = 1.0 + 1.0/(1<<40)
	return T(probe) == T(1)
}

// NewSim allocates a double-precision sequential simulation. Parameter
// sets with Precision F32 must go through NewSolver (or NewSimOf) so
// the requested precision is honoured.
func NewSim(p *Params) (*Sim, error) { return NewSimOf[float64](p) }

// transposeViews returns the [b][a] views of [a][b] planes.
func transposeViews[T num.Float](store [][][]T, nb, na int) [][][]T {
	out := make([][][]T, nb)
	for b := range out {
		out[b] = make([][]T, na)
		for a := range out[b] {
			out[b][a] = store[a][b]
		}
	}
	return out
}

// latticeChunkValues bounds one allocation of planes (1 MiB at double
// precision). A plane per allocation rounds each up to whole pages (~5 %
// at 64x48x16). A component per allocation needs one free run that size;
// small allocations landing in a freed lattice split it, so the next job
// grew the heap by a component (200x100x20 peak RSS 142 or 185 MiB).
const latticeChunkValues = 1 << 17

// newPlanes allocates nx x nc planes of size values each, indexed
// [x][c], a few planes of one component per allocation.
func newPlanes[T num.Float](nx, nc, size int) [][][]T {
	per := max(1, latticeChunkValues/size)
	out := make([][][]T, nx)
	for x := range out {
		out[x] = make([][]T, nc)
	}
	for c := 0; c < nc; c++ {
		var chunk []T
		for x := range out {
			if len(chunk) == 0 {
				chunk = make([]T, min(per, nx-x)*size)
			}
			out[x][c], chunk = chunk[:size:size], chunk[size:]
		}
	}
	return out
}

// Params returns the simulation parameters.
func (s *SimOf[T]) Params() *Params { return s.P }

// Step advances the simulation by one LBM phase as three passes over
// the whole lattice — density computation, force evaluation +
// collision, then streaming with bounce-back — the plain reference
// every stepping path is held to bit for bit. Its post-collision and
// density lattices are allocated on the first call and kept; each call
// allocates only one collision scratch.
func (s *SimOf[T]) Step() {
	p := s.P
	if s.post == nil {
		s.post = newPlanes[T](p.NX, p.NComp(), s.K.PlaneLen())
		s.n = newPlanes[T](p.NX, p.NComp(), s.K.PlaneCells())
	}
	f, post, n := s.fView, s.post, s.n
	for x := 0; x < p.NX; x++ {
		s.K.Densities(f[x], n[x])
	}
	sc := s.K.NewScratch()
	for x := 0; x < p.NX; x++ {
		l := (x - 1 + p.NX) % p.NX
		r := (x + 1) % p.NX
		s.K.CollideScratch(sc, n[l], n[x], n[r], f[x], post[x])
	}
	for x := 0; x < p.NX; x++ {
		l := (x - 1 + p.NX) % p.NX
		r := (x + 1) % p.NX
		s.K.Stream(post[l], post[x], post[r], f[x])
	}
	s.step++
}

// Run advances n steps.
func (s *SimOf[T]) Run(n int) {
	for i := 0; i < n; i++ {
		s.Step()
	}
}

// StepCount returns the number of completed steps.
func (s *SimOf[T]) StepCount() int { return s.step }

// Plane returns the current distribution plane of component c at x.
func (s *SimOf[T]) Plane(c, x int) []T { return s.f[c][x] }

// Density returns the mass density of component c at (x, y, z).
func (s *SimOf[T]) Density(c, x, y, z int) float64 {
	base := (y*s.P.NZ + z) * lattice.Q19
	var sum T
	for _, v := range s.f[c][x][base : base+lattice.Q19] {
		sum += v
	}
	return float64(sum) * s.P.Components[c].Mass
}

// Velocity returns the barycentric velocity at (x, y, z).
func (s *SimOf[T]) Velocity(x, y, z int) (ux, uy, uz float64) {
	return s.K.CellVelocity(s.fView[x], y, z)
}

// TotalMass returns the total mass of component c over the domain. The
// accumulation is always double precision so the mass diagnostic does
// not drift with the solver precision.
func (s *SimOf[T]) TotalMass(c int) float64 {
	var m float64
	for x := 0; x < s.P.NX; x++ {
		for _, v := range s.f[c][x] {
			m += float64(v)
		}
	}
	return m * s.P.Components[c].Mass
}

// DensityProfileY returns component c's density along y at fixed (x, z),
// one value per lattice row including the wall layers.
func (s *SimOf[T]) DensityProfileY(c, x, z int) []float64 {
	out := make([]float64, s.P.NY)
	for y := 0; y < s.P.NY; y++ {
		out[y] = s.Density(c, x, y, z)
	}
	return out
}

// VelocityProfileY returns the streamwise velocity u_x along y at fixed
// (x, z).
func (s *SimOf[T]) VelocityProfileY(x, z int) []float64 {
	out := make([]float64, s.P.NY)
	for y := 0; y < s.P.NY; y++ {
		ux, _, _ := s.Velocity(x, y, z)
		out[y] = ux
	}
	return out
}

// CheckFinite returns an error naming the first non-finite population it
// finds; long-running drivers call this periodically to fail fast on
// numerical blow-up.
func (s *SimOf[T]) CheckFinite() error {
	for c := range s.f {
		for x, plane := range s.f[c] {
			for idx, v := range plane {
				if v != v { // NaN
					return fmt.Errorf("lbm: NaN in component %d plane %d index %d at step %d", c, x, idx, s.step)
				}
			}
		}
	}
	return nil
}
