package lbm

import (
	"microslip/internal/geometry"
	"microslip/internal/lattice"
	"microslip/internal/num"
)

// KernelOf evaluates the S-C LBM update on single x-planes at scalar
// precision T. A plane stores distribution values at (y*NZ+z)*Q19+i and
// scalar values at y*NZ+z. Every solver is a thin driver around three
// methods, so they all produce identical results:
//
//	Densities -> CollideScratch -> Stream
//
// either as three passes over the lattice (the serial reference Step) or
// fused into one rolling sweep run in place (SweepFused: every band of
// the sequential solver and every distributed rank).
// The float64 instantiation is the Kernel alias; the float32
// instantiation is the reduced-precision core behind Params.Precision.
//
// The kernel never writes a solid cell: a lattice's solid populations
// are zero from InitEquilibrium (or from a load path's ClearSolid) on,
// and nothing reads them — a bulk cell has no solid neighbour, and the
// near-wall link tables skip solid ones.
type KernelOf[T num.Float] struct {
	NY, NZ, NComp int

	tau, invTau, mass []T
	// massInvTau[c] is mass[c]*invTau[c], component c's weight in the
	// common velocity; gm[c] lists its nonzero S-C couplings.
	massInvTau     []T
	gm             [][]coupling[T]
	body           [3]T
	wallComp       int
	wallFy, wallFz []T    // per y*NZ+z; nil when disabled
	solid          []bool // per y*NZ+z
	adhesion       []T    // per component; nil when disabled
	adhY, adhZ     []T    // sum_i w_i s(x+e_i) e_i per y*NZ+z
	rhoMin         T

	// kind classifies every y*NZ+z cell for the hot loops: solidCell,
	// bulkCell (fluid with no solid (y, z)-neighbour in the Moore-8
	// sense, so none of its stream sources or psi-gradient neighbours
	// is solid), or, for a near-wall fluid cell, the index of its link
	// table in near. Bulk cells take branch-free unrolled paths; near
	// cells walk their tables. The split is a pure function of the mask,
	// so every solver path makes the same choice per cell.
	kind []int32
	near []nearLinks
	// grad holds every near-wall cell's psi-gradient links; dirs the
	// weight and velocity of each direction at T.
	grad []gradLink
	dirs [lattice.Q19]dirConst[T]
	// pull[i] is the in-plane offset, in values, from a cell's base to
	// the value streamed along direction i: i - (Ey[i]*NZ+Ez[i])*Q19.
	pull [lattice.Q19]int
}

// Cell kinds below zero; a near-wall cell's kind is its table index.
const (
	solidCell = -2
	bulkCell  = -1
)

// coupling is one nonzero S-C interaction term of a component: the
// partner component and g[c][partner]*mass[partner].
type coupling[T num.Float] struct {
	comp int
	gm   T
}

// nearLinks is one near-wall fluid cell's neighbourhood, resolved from
// the solid mask once. Plane 0 is x-1, 1 is x, 2 is x+1.
type nearLinks struct {
	// grad[lo:hi] are the cell's fluid psi-gradient neighbours, in
	// direction order.
	lo, hi int32
	// src[i] is where population i streams from: the value index in a
	// post-collision plane, or the cell's own opposite population in
	// plane 1 when the source is solid (bounce-back).
	src [lattice.Q19]streamLink
}

// gradLink is one psi-gradient neighbour: its density plane and cell,
// and the direction it lies along.
type gradLink struct {
	cell       int32
	plane, dir uint8
}

// dirConst is one direction's weight w_i and velocity e_i at T.
type dirConst[T num.Float] struct {
	w T
	e [3]T
}

// streamLink is one population's stream source.
type streamLink struct{ plane, idx int32 }

// Kernel is the double-precision plane kernel used by the parallel layer
// and all historical call sites.
type Kernel = KernelOf[float64]

// NewKernelOf builds the plane kernel for p at precision T. It panics on
// invalid parameters; callers should Validate first for a recoverable
// error. It deliberately does not require p.Precision to match T: the
// distributed solver computes in float64 while shipping float32 wire
// payloads under Precision F32.
func NewKernelOf[T num.Float](p *Params) *KernelOf[T] {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	ch := p.Channel()
	mask := p.Mask()
	k := &KernelOf[T]{
		NY: p.NY, NZ: p.NZ, NComp: p.NComp(),
		tau:        make([]T, p.NComp()),
		invTau:     make([]T, p.NComp()),
		mass:       make([]T, p.NComp()),
		massInvTau: make([]T, p.NComp()),
		gm:         make([][]coupling[T], p.NComp()),
		wallComp:   p.WallForceComp,
		rhoMin:     T(p.RhoMin),
	}
	k.body = [3]T{T(p.BodyForce[0]), T(p.BodyForce[1]), T(p.BodyForce[2])}
	if k.rhoMin == 0 {
		k.rhoMin = 1e-12
	}
	for c, comp := range p.Components {
		k.tau[c] = T(comp.Tau)
		k.invTau[c] = T(1 / comp.Tau)
		k.mass[c] = T(comp.Mass)
		k.massInvTau[c] = k.mass[c] * k.invTau[c]
	}
	for c, row := range p.G {
		for c2, g := range row {
			if gm := T(g) * k.mass[c2]; gm != 0 {
				k.gm[c] = append(k.gm[c], coupling[T]{comp: c2, gm: gm})
			}
		}
	}
	k.solid = make([]bool, p.NY*p.NZ)
	for y := 0; y < p.NY; y++ {
		for z := 0; z < p.NZ; z++ {
			k.solid[y*p.NZ+z] = mask.IsSolid(y, z)
		}
	}
	w := lattice.WeightsOf[T]()
	for i := range k.dirs {
		k.dirs[i] = dirConst[T]{w[i], [3]T{T(lattice.Ex[i]), T(lattice.Ey[i]), T(lattice.Ez[i])}}
	}
	k.kind = make([]int32, p.NY*p.NZ)
	nNear := 0
	for cell := range k.kind {
		switch y, z := cell/p.NZ, cell%p.NZ; {
		case k.solid[cell]:
			k.kind[cell] = solidCell
		case !k.touchesSolid(y, z):
			k.kind[cell] = bulkCell
		default:
			k.kind[cell] = int32(nNear)
			nNear++
		}
	}
	k.near = make([]nearLinks, nNear)
	k.grad = make([]gradLink, 0, nNear*(lattice.Q19-1))
	for cell, kind := range k.kind {
		if kind >= 0 {
			k.linkCell(cell, &k.near[kind])
		}
	}
	for i := 0; i < lattice.Q19; i++ {
		k.pull[i] = i - (lattice.Ey[i]*p.NZ+lattice.Ez[i])*lattice.Q19
	}
	if p.WallForceComp >= 0 {
		var prof *geometry.WallForceProfile
		if p.WallWindow != nil {
			// A refined-grid level: wall distances and decay are
			// evaluated in global fine units, and Scale converts the
			// acceleration to the level's own lattice units.
			prof = geometry.NewWallForceProfileWindow(ch, p.WallForceAmp, p.WallForceDecay, *p.WallWindow)
		} else {
			prof = geometry.NewWallForceProfile(ch, p.WallForceAmp, p.WallForceDecay)
		}
		k.wallFy, k.wallFz = toScalars[T](prof.Fy), toScalars[T](prof.Fz)
	}
	if hasAdhesion(p.WallAdhesion) {
		k.adhesion = toScalars[T](p.WallAdhesion)
		// The solid mask is x-independent, so the +x/-x direction pairs
		// cancel and the adhesion direction sum reduces to per-(y,z)
		// y and z components, precomputed once. The sums run in float64
		// regardless of T: they are setup-time geometry, not hot-path
		// arithmetic, and rounding once at the end loses less than
		// accumulating in single precision.
		k.adhY = make([]T, p.NY*p.NZ)
		k.adhZ = make([]T, p.NY*p.NZ)
		for y := 1; y < p.NY-1; y++ {
			for z := 1; z < p.NZ-1; z++ {
				cell := y*p.NZ + z
				if k.solid[cell] {
					continue
				}
				var sy, sz float64
				for i := 1; i < lattice.Q19; i++ {
					if k.solid[(y+lattice.Ey[i])*p.NZ+z+lattice.Ez[i]] {
						sy += lattice.W[i] * float64(lattice.Ey[i])
						sz += lattice.W[i] * float64(lattice.Ez[i])
					}
				}
				k.adhY[cell] = T(sy)
				k.adhZ[cell] = T(sz)
			}
		}
	}
	return k
}

// NewKernel builds the double-precision plane kernel for p.
func NewKernel(p *Params) *Kernel { return NewKernelOf[float64](p) }

// touchesSolid reports whether fluid cell (y, z) has a solid neighbour
// in the Moore-8 sense. The channel's boundary rows are solid, so only
// interior cells are asked.
func (k *KernelOf[T]) touchesSolid(y, z int) bool {
	for dy := -1; dy <= 1; dy++ {
		for dz := -1; dz <= 1; dz++ {
			if k.solid[(y+dy)*k.NZ+z+dz] {
				return true
			}
		}
	}
	return false
}

// linkCell resolves the link table of near-wall fluid cell cell,
// appending its gradient links to k.grad.
func (k *KernelOf[T]) linkCell(cell int, nl *nearLinks) {
	y, z := cell/k.NZ, cell%k.NZ
	nl.lo = int32(len(k.grad))
	nl.src[0] = streamLink{1, int32(cell * lattice.Q19)}
	for i := 1; i < lattice.Q19; i++ {
		ex, ey, ez := lattice.Ex[i], lattice.Ey[i], lattice.Ez[i]
		if g := (y+ey)*k.NZ + z + ez; !k.solid[g] {
			k.grad = append(k.grad, gradLink{cell: int32(g), plane: uint8(1 + ex), dir: uint8(i)})
		}
		if src := (y-ey)*k.NZ + z - ez; k.solid[src] {
			nl.src[i] = streamLink{1, int32(cell*lattice.Q19 + lattice.Opposite[i])}
		} else {
			nl.src[i] = streamLink{int32(1 - ex), int32(src*lattice.Q19 + i)}
		}
	}
	nl.hi = int32(len(k.grad))
}

// toScalars rounds a float64 slice to T (a copy even when T is float64,
// so kernels never alias caller storage).
func toScalars[T num.Float](src []float64) []T {
	if src == nil {
		return nil
	}
	out := make([]T, len(src))
	for i, v := range src {
		out[i] = T(v)
	}
	return out
}

func hasAdhesion(a []float64) bool {
	for _, v := range a {
		if v != 0 {
			return true
		}
	}
	return false
}

// ScratchOf holds the per-cell work buffers of the collision kernel.
// The stepping paths allocate one per sweep (or per serial Step) up
// front via NewScratch and pass it to CollideScratch. A scratch must not
// be shared between concurrent CollideScratch calls.
type ScratchOf[T num.Float] struct {
	nHere []T
	grads [][3]T
}

// Scratch is the double-precision collision scratch.
type Scratch = ScratchOf[float64]

// NewScratch allocates collision work buffers sized for this kernel.
func (k *KernelOf[T]) NewScratch() *ScratchOf[T] {
	return &ScratchOf[T]{
		nHere: make([]T, k.NComp),
		grads: make([][3]T, k.NComp),
	}
}

// PlaneCells returns the number of cells in one x-plane.
func (k *KernelOf[T]) PlaneCells() int { return k.NY * k.NZ }

// PlaneLen returns the value count of one distribution plane.
func (k *KernelOf[T]) PlaneLen() int { return k.NY * k.NZ * lattice.Q19 }

// Solid reports whether cell (y, z) is solid.
func (k *KernelOf[T]) Solid(y, z int) bool { return k.solid[y*k.NZ+z] }

// Densities computes per-component number densities for one plane:
// n[c][cell] = sum_i f[c][cell*Q+i]. Solid cells yield zero because
// their populations are zero.
func (k *KernelOf[T]) Densities(f [][]T, n [][]T) {
	cells := k.PlaneCells()
	for c := 0; c < k.NComp; c++ {
		fc, nc := f[c], n[c][:cells]
		for cell := range nc {
			fv := (*[lattice.Q19]T)(fc[cell*lattice.Q19:])
			// Pairwise tree sum: independent partials instead of one
			// serial accumulation chain over the 19 populations.
			s := ((fv[0] + fv[1]) + (fv[2] + fv[3])) + ((fv[4] + fv[5]) + (fv[6] + fv[7]))
			s += ((fv[8] + fv[9]) + (fv[10] + fv[11])) + ((fv[12] + fv[13]) + (fv[14] + fv[15]))
			s += (fv[16] + fv[17]) + fv[18]
			nc[cell] = s
		}
	}
}

// CollideScratch performs force evaluation and BGK collision for the
// plane at x, writing post-collision populations of its fluid cells
// into out. nL, nC, nR are the number-density planes at x-1, x, x+1
// (periodic in x); fC the current distribution plane; sc the caller's
// work buffers. out must not alias fC.
//
// The force on component sigma is the S-C interaction force
//
//	F_sigma = -psi_sigma(x) sum_sigma' g_ss' sum_i w_i psi_sigma'(x+e_i) e_i
//
// with psi = rho, plus the hydrophobic wall force (an acceleration field
// times the local density, applied to the water component only) and the
// driving body force. Forces shift the equilibrium velocity by
// tau_sigma F_sigma / rho_sigma about the common velocity u'.
func (k *KernelOf[T]) CollideScratch(sc *ScratchOf[T], nL, nC, nR, fC, out [][]T) {
	nz, ncomp := k.NZ, k.NComp
	nHere := sc.nHere[:ncomp]
	grads := sc.grads[:ncomp]

	for y := 1; y < k.NY-1; y++ {
		// Row y's interior cells, z = 1 + z0.
		for z0, kind := range k.kind[y*nz+1 : y*nz+nz-1] {
			if kind == solidCell {
				continue
			}
			cell := y*nz + z0 + 1
			base := cell * lattice.Q19

			// Per-component density, momentum, and psi-gradient sums.
			var momSum [3]T
			var den T
			for c := range nHere {
				fv := (*[lattice.Q19]T)(fC[c][base:])
				// Momentum: signed sums over the direction groups with
				// e_x, e_y, e_z = +-1 (the e = 0 terms vanish).
				px := (fv[1] + fv[7] + fv[9] + fv[11] + fv[13]) -
					(fv[2] + fv[8] + fv[10] + fv[12] + fv[14])
				py := (fv[3] + fv[7] + fv[10] + fv[15] + fv[17]) -
					(fv[4] + fv[8] + fv[9] + fv[16] + fv[18])
				pz := (fv[5] + fv[11] + fv[14] + fv[15] + fv[18]) -
					(fv[6] + fv[12] + fv[13] + fv[16] + fv[17])
				nHere[c] = nC[c][cell]
				mt := k.massInvTau[c]
				momSum[0] += mt * px
				momSum[1] += mt * py
				momSum[2] += mt * pz
				den += mt * nHere[c]

				// psi gradient: neighbours within the plane and in the
				// adjacent planes; solid neighbours contribute psi = 0.
				if kind == bulkCell {
					// No solid neighbour: unrolled stencil reads, the
					// axis and edge weight factored out per group.
					l, cn, r := nL[c], nC[c], nR[c]
					ryp, rym := r[cell+nz], r[cell-nz]
					rzp, rzm := r[cell+1], r[cell-1]
					lyp, lym := l[cell+nz], l[cell-nz]
					lzp, lzm := l[cell+1], l[cell-1]
					cpp, cmm := cn[cell+nz+1], cn[cell-nz-1]
					cpm, cmp := cn[cell+nz-1], cn[cell-nz+1]
					const wA, wD = 1.0 / 18.0, 1.0 / 36.0
					grads[c] = [3]T{
						wA*(r[cell]-l[cell]) + wD*(ryp+rym+rzp+rzm-lym-lyp-lzm-lzp),
						wA*(cn[cell+nz]-cn[cell-nz]) + wD*(ryp-rym+lyp-lym+cpp-cmm+cpm-cmp),
						wA*(cn[cell+1]-cn[cell-1]) + wD*(rzp-rzm+lzp-lzm+cpp-cmm-cpm+cmp),
					}
					continue
				}
				planes := [3][]T{nL[c], nC[c], nR[c]}
				var g [3]T
				nl := &k.near[kind]
				for _, ln := range k.grad[nl.lo:nl.hi] {
					d := &k.dirs[ln.dir]
					w := d.w * planes[ln.plane][ln.cell]
					g[0] += w * d.e[0]
					g[1] += w * d.e[1]
					g[2] += w * d.e[2]
				}
				grads[c] = g
			}

			var ux, uy, uz T
			if den > k.rhoMin {
				ux, uy, uz = momSum[0]/den, momSum[1]/den, momSum[2]/den
			}

			for c, n := range nHere {
				rho := k.mass[c] * n
				// S-C interaction force (force density).
				var fx, fy, fz T
				for _, cp := range k.gm[c] {
					gr := &grads[cp.comp]
					fx -= rho * cp.gm * gr[0]
					fy -= rho * cp.gm * gr[1]
					fz -= rho * cp.gm * gr[2]
				}
				// Hydrophobic wall force: acceleration profile times the
				// local density, on the water component only.
				if c == k.wallComp && k.wallFy != nil {
					fy += rho * k.wallFy[cell]
					fz += rho * k.wallFz[cell]
				}
				// Solid-fluid adhesion (Martys-Chen): positive repels
				// the component from all solid surfaces.
				if k.adhesion != nil && k.adhesion[c] != 0 {
					fy -= k.adhesion[c] * rho * k.adhY[cell]
					fz -= k.adhesion[c] * rho * k.adhZ[cell]
				}
				// Driving body force.
				fx += rho * k.body[0]
				fy += rho * k.body[1]
				fz += rho * k.body[2]

				ueqx, ueqy, ueqz := ux, uy, uz
				if rho > k.rhoMin {
					s := k.tau[c] / rho
					ueqx += s * fx
					ueqy += s * fy
					ueqz += s * fz
				}
				relax((*[lattice.Q19]T)(fC[c][base:]), (*[lattice.Q19]T)(out[c][base:]),
					n, ueqx, ueqy, ueqz, k.invTau[c])
			}
		}
	}
}

// relax writes into ov the BGK relaxation of fv toward the equilibrium
// of number density n and velocity u, ov_i = f_i - (f_i - feq_i)/tau,
// with each feq_i evaluated in registers by the expressions of
// lattice.EquilibriumOf.
func relax[T num.Float](fv, ov *[lattice.Q19]T, n, ux, uy, uz, invTau T) {
	rest, usq, ra, rd := lattice.EqBasis(n, ux, uy, uz)
	ov[0] = fv[0] - (fv[0]-rest)*invTau
	ov[1], ov[2] = relaxPair(fv[1], fv[2], ra, ux, usq, invTau)
	ov[3], ov[4] = relaxPair(fv[3], fv[4], ra, uy, usq, invTau)
	ov[5], ov[6] = relaxPair(fv[5], fv[6], ra, uz, usq, invTau)
	ov[7], ov[8] = relaxPair(fv[7], fv[8], rd, ux+uy, usq, invTau)
	ov[9], ov[10] = relaxPair(fv[9], fv[10], rd, ux-uy, usq, invTau)
	ov[11], ov[12] = relaxPair(fv[11], fv[12], rd, ux+uz, usq, invTau)
	ov[13], ov[14] = relaxPair(fv[13], fv[14], rd, ux-uz, usq, invTau)
	ov[15], ov[16] = relaxPair(fv[15], fv[16], rd, uy+uz, usq, invTau)
	ov[17], ov[18] = relaxPair(fv[17], fv[18], rd, uy-uz, usq, invTau)
}

// relaxPair relaxes the populations fp, fm of the direction pair +e,
// -e, given wr = w*n and eu = e.u.
func relaxPair[T num.Float](fp, fm, wr, eu, usq, invTau T) (T, T) {
	p, m := lattice.EqPair(wr, eu, usq)
	return fp - (fp-p)*invTau, fm - (fm-m)*invTau
}

// Stream performs pull streaming with full-way bounce-back for the plane
// at x: out[c] receives populations arriving at the fluid cells of x
// from the post-collision planes fL (x-1), fC (x), fR (x+1). A
// population whose source cell is solid is replaced by the reflected
// population at the destination cell (bounce-back), which places the
// no-slip plane halfway into the wall layer. out must not alias fL, fC
// or fR.
func (k *KernelOf[T]) Stream(fL, fC, fR, out [][]T) {
	nz := k.NZ
	o := &k.pull
	for c := 0; c < k.NComp; c++ {
		fl, fc, fr, oc := fL[c], fC[c], fR[c], out[c]
		planes := [3][]T{fl, fc, fr}
		for y := 1; y < k.NY-1; y++ {
			for z0, kind := range k.kind[y*nz+1 : y*nz+nz-1] {
				if kind == solidCell {
					continue
				}
				base := (y*nz + z0 + 1) * lattice.Q19
				ob := (*[lattice.Q19]T)(oc[base:])
				if kind == bulkCell {
					// No solid source: every population is a plain copy
					// from the precomputed pull offset — directions with
					// e_x = +1 pull from the left plane, e_x = -1 from
					// the right, e_x = 0 in-plane.
					ob[0] = fc[base]
					ob[1] = fl[base+o[1]]
					ob[2] = fr[base+o[2]]
					ob[3] = fc[base+o[3]]
					ob[4] = fc[base+o[4]]
					ob[5] = fc[base+o[5]]
					ob[6] = fc[base+o[6]]
					ob[7] = fl[base+o[7]]
					ob[8] = fr[base+o[8]]
					ob[9] = fl[base+o[9]]
					ob[10] = fr[base+o[10]]
					ob[11] = fl[base+o[11]]
					ob[12] = fr[base+o[12]]
					ob[13] = fl[base+o[13]]
					ob[14] = fr[base+o[14]]
					ob[15] = fc[base+o[15]]
					ob[16] = fc[base+o[16]]
					ob[17] = fc[base+o[17]]
					ob[18] = fc[base+o[18]]
					continue
				}
				for i, src := range &k.near[kind].src {
					ob[i] = planes[src.plane][src.idx]
				}
			}
		}
	}
}

// ClearSolid zeroes the solid cells of one distribution plane. Load
// paths call it on every plane they copy in, so a snapshot cannot bring
// in a solid population the kernel would never overwrite.
func (k *KernelOf[T]) ClearSolid(plane []T) {
	for cell, s := range k.solid {
		if s {
			clear(plane[cell*lattice.Q19 : (cell+1)*lattice.Q19])
		}
	}
}

// InitEquilibrium fills one distribution plane with the rest-state
// equilibrium of uniform number density n0 on fluid cells, zero on
// solids.
func (k *KernelOf[T]) InitEquilibrium(plane []T, n0 float64) {
	var feq [lattice.Q19]T
	lattice.EquilibriumOf(T(n0), 0, 0, 0, &feq)
	for cell := range k.solid {
		copy(plane[cell*lattice.Q19:], feq[:])
	}
	k.ClearSolid(plane)
}

// CellVelocity returns the barycentric velocity at cell (y, z) of plane
// f planes (per component), i.e. total momentum over total mass density,
// without the half-force correction (adequate for profile output). The
// moment sums run at the kernel's precision T and are widened at the
// end.
func (k *KernelOf[T]) CellVelocity(f [][]T, y, z int) (ux, uy, uz float64) {
	cell := y*k.NZ + z
	if k.solid[cell] {
		return 0, 0, 0
	}
	base := cell * lattice.Q19
	var px, py, pz, m T
	for c := 0; c < k.NComp; c++ {
		fc := f[c]
		for i := 0; i < lattice.Q19; i++ {
			v := fc[base+i] * k.mass[c]
			m += v
			px += v * T(lattice.Ex[i])
			py += v * T(lattice.Ey[i])
			pz += v * T(lattice.Ez[i])
		}
	}
	if m <= k.rhoMin {
		return 0, 0, 0
	}
	return float64(px / m), float64(py / m), float64(pz / m)
}
