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
//	Densities -> Collide -> Stream
//
// either as three passes over the lattice (the serial reference Step) or
// fused into one rolling sweep run in place (SweepFused: every band of
// the sequential solver and every distributed rank).
// The float64 instantiation is the Kernel alias; the float32
// instantiation is the reduced-precision core behind Params.Precision.
type KernelOf[T num.Float] struct {
	NY, NZ, NComp int

	tau, invTau, mass []T
	g                 [][]T
	body              [3]T
	wallComp          int
	wallFy, wallFz    []T    // per y*NZ+z; nil when disabled
	solid             []bool // per y*NZ+z
	adhesion          []T    // per component; nil when disabled
	adhY, adhZ        []T    // sum_i w_i s(x+e_i) e_i per y*NZ+z
	rhoMin            T
	w                 [lattice.Q19]T // quadrature weights at T

	// nearSolid marks interior fluid cells with at least one solid
	// (y, z)-neighbour in the Moore-8 sense; because the mask is
	// x-independent this is exactly the set of cells whose streaming
	// sources or psi-gradient neighbours can be solid. Cells outside
	// the set take branch-free unrolled fast paths in Stream and
	// CollideScratch; cells inside keep the per-direction checks. The
	// split is a pure (deterministic) dispatch, so every solver path
	// makes the same choice per cell and bit-identity holds.
	nearSolid []bool
	// pull[i] is the in-plane offset, in values, from a cell's base to
	// the value streamed along direction i: i - (Ey[i]*NZ+Ez[i])*Q19.
	pull [lattice.Q19]int
}

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
		tau:      make([]T, p.NComp()),
		invTau:   make([]T, p.NComp()),
		mass:     make([]T, p.NComp()),
		wallComp: p.WallForceComp,
		rhoMin:   T(p.RhoMin),
		w:        lattice.WeightsOf[T](),
	}
	k.body = [3]T{T(p.BodyForce[0]), T(p.BodyForce[1]), T(p.BodyForce[2])}
	k.g = make([][]T, len(p.G))
	for i, row := range p.G {
		k.g[i] = toScalars[T](row)
	}
	if k.rhoMin == 0 {
		k.rhoMin = 1e-12
	}
	for c, comp := range p.Components {
		k.tau[c] = T(comp.Tau)
		k.invTau[c] = T(1 / comp.Tau)
		k.mass[c] = T(comp.Mass)
	}
	k.solid = make([]bool, p.NY*p.NZ)
	for y := 0; y < p.NY; y++ {
		for z := 0; z < p.NZ; z++ {
			k.solid[y*p.NZ+z] = mask.IsSolid(y, z)
		}
	}
	k.nearSolid = make([]bool, p.NY*p.NZ)
	for y := 1; y < p.NY-1; y++ {
		for z := 1; z < p.NZ-1; z++ {
			ns := false
			for dy := -1; dy <= 1 && !ns; dy++ {
				for dz := -1; dz <= 1; dz++ {
					if (dy != 0 || dz != 0) && k.solid[(y+dy)*p.NZ+z+dz] {
						ns = true
						break
					}
				}
			}
			k.nearSolid[y*p.NZ+z] = ns
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
// Collide allocates one per call; the stepping paths allocate one per
// sweep (or per serial Step) up front via NewScratch and pass it to
// CollideScratch. A scratch must not be shared between concurrent
// CollideScratch calls.
type ScratchOf[T num.Float] struct {
	mom   [][3]T
	nHere []T
	grads [][3]T
	feq   [lattice.Q19]T
}

// Scratch is the double-precision collision scratch.
type Scratch = ScratchOf[float64]

// NewScratch allocates collision work buffers sized for this kernel.
func (k *KernelOf[T]) NewScratch() *ScratchOf[T] {
	return &ScratchOf[T]{
		mom:   make([][3]T, k.NComp),
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
// their populations are kept at zero.
func (k *KernelOf[T]) Densities(f [][]T, n [][]T) {
	cells := k.PlaneCells()
	for c := 0; c < k.NComp; c++ {
		fc, nc := f[c], n[c]
		for cell := 0; cell < cells; cell++ {
			base := cell * lattice.Q19
			fv := fc[base : base+lattice.Q19 : base+lattice.Q19]
			// Pairwise tree sum: independent partials instead of one
			// serial accumulation chain over the 19 populations.
			s := ((fv[0] + fv[1]) + (fv[2] + fv[3])) + ((fv[4] + fv[5]) + (fv[6] + fv[7]))
			s += ((fv[8] + fv[9]) + (fv[10] + fv[11])) + ((fv[12] + fv[13]) + (fv[14] + fv[15]))
			s += (fv[16] + fv[17]) + fv[18]
			nc[cell] = s
		}
	}
}

// Collide performs force evaluation and BGK collision for the plane at
// x, writing post-collision populations into out. nL, nC, nR are the
// number-density planes at x-1, x, x+1 (periodic in x); fC the current
// distribution plane. out must not alias fC.
//
// The force on component sigma is the S-C interaction force
//
//	F_sigma = -psi_sigma(x) sum_sigma' g_ss' sum_i w_i psi_sigma'(x+e_i) e_i
//
// with psi = rho, plus the hydrophobic wall force (an acceleration field
// times the local density, applied to the water component only) and the
// driving body force. Forces shift the equilibrium velocity by
// tau_sigma F_sigma / rho_sigma about the common velocity u'.
func (k *KernelOf[T]) Collide(nL, nC, nR, fC, out [][]T) {
	k.CollideScratch(k.NewScratch(), nL, nC, nR, fC, out)
}

// CollideScratch is Collide with caller-provided work buffers; it is
// the allocation-free form every stepping path uses.
// The arithmetic is identical to Collide, so both produce bit-equal
// output.
func (k *KernelOf[T]) CollideScratch(sc *ScratchOf[T], nL, nC, nR, fC, out [][]T) {
	nz, ncomp := k.NZ, k.NComp
	var psiGrad [3]T // sum_i w_i psi(x+e_i) e_i per component
	mom := sc.mom
	nHere := sc.nHere
	grads := sc.grads
	feq := &sc.feq

	for y := 1; y < k.NY-1; y++ {
		for z := 1; z < nz-1; z++ {
			cell := y*nz + z
			if k.solid[cell] {
				for c := 0; c < ncomp; c++ {
					base := cell * lattice.Q19
					oc := out[c]
					for i := 0; i < lattice.Q19; i++ {
						oc[base+i] = 0
					}
				}
				continue
			}

			// Per-component density, momentum, and psi-gradient sums.
			var momSum [3]T
			var den T
			bulk := !k.nearSolid[cell]
			for c := 0; c < ncomp; c++ {
				base := cell * lattice.Q19
				fv := fC[c][base : base+lattice.Q19 : base+lattice.Q19]
				// Momentum: signed sums over the direction groups with
				// e_x, e_y, e_z = +-1 (the e = 0 terms vanish).
				px := (fv[1] + fv[7] + fv[9] + fv[11] + fv[13]) -
					(fv[2] + fv[8] + fv[10] + fv[12] + fv[14])
				py := (fv[3] + fv[7] + fv[10] + fv[15] + fv[17]) -
					(fv[4] + fv[8] + fv[9] + fv[16] + fv[18])
				pz := (fv[5] + fv[11] + fv[14] + fv[15] + fv[18]) -
					(fv[6] + fv[12] + fv[13] + fv[16] + fv[17])
				mom[c] = [3]T{px, py, pz}
				nHere[c] = nC[c][cell]
				mt := k.mass[c] * k.invTau[c]
				momSum[0] += mt * px
				momSum[1] += mt * py
				momSum[2] += mt * pz
				den += mt * nHere[c]

				// psi gradient: neighbours within the plane and in the
				// adjacent planes; solid neighbours contribute psi = 0.
				if bulk {
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
				psiGrad = [3]T{}
				for i := 1; i < lattice.Q19; i++ {
					sy := y + lattice.Ey[i]
					sz := z + lattice.Ez[i]
					scell := sy*nz + sz
					if k.solid[scell] {
						continue
					}
					var nv T
					switch lattice.Ex[i] {
					case -1:
						nv = nL[c][scell]
					case 0:
						nv = nC[c][scell]
					default:
						nv = nR[c][scell]
					}
					w := k.w[i] * nv
					psiGrad[0] += w * T(lattice.Ex[i])
					psiGrad[1] += w * T(lattice.Ey[i])
					psiGrad[2] += w * T(lattice.Ez[i])
				}
				grads[c] = psiGrad
			}

			var ux, uy, uz T
			if den > k.rhoMin {
				ux, uy, uz = momSum[0]/den, momSum[1]/den, momSum[2]/den
			}

			for c := 0; c < ncomp; c++ {
				rho := k.mass[c] * nHere[c]
				// S-C interaction force (force density).
				var fx, fy, fz T
				for c2 := 0; c2 < ncomp; c2++ {
					gcc := k.g[c][c2] * k.mass[c2]
					if gcc == 0 {
						continue
					}
					fx -= rho * gcc * grads[c2][0]
					fy -= rho * gcc * grads[c2][1]
					fz -= rho * gcc * grads[c2][2]
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
				lattice.EquilibriumOf(nHere[c], ueqx, ueqy, ueqz, feq)
				base := cell * lattice.Q19
				fv := fC[c][base : base+lattice.Q19 : base+lattice.Q19]
				ov := out[c][base : base+lattice.Q19 : base+lattice.Q19]
				it := k.invTau[c]
				for i := 0; i < lattice.Q19; i++ {
					v := fv[i]
					ov[i] = v - (v-feq[i])*it
				}
			}
		}
	}
	// Boundary rows (y = 0, NY-1 and z = 0, NZ-1) are solid; keep zero.
	k.zeroSolidBoundary(out)
}

func (k *KernelOf[T]) zeroSolidBoundary(out [][]T) {
	nz := k.NZ
	for c := 0; c < k.NComp; c++ {
		oc := out[c]
		for z := 0; z < nz; z++ {
			zeroCell(oc, (0*nz+z)*lattice.Q19)
			zeroCell(oc, ((k.NY-1)*nz+z)*lattice.Q19)
		}
		for y := 0; y < k.NY; y++ {
			zeroCell(oc, (y*nz+0)*lattice.Q19)
			zeroCell(oc, (y*nz+nz-1)*lattice.Q19)
		}
	}
}

func zeroCell[T num.Float](p []T, base int) {
	for i := 0; i < lattice.Q19; i++ {
		p[base+i] = 0
	}
}

// Stream performs pull streaming with full-way bounce-back for the plane
// at x: out[c] receives populations arriving at x from the post-collision
// planes fL (x-1), fC (x), fR (x+1). A population whose source cell is
// solid is replaced by the reflected population at the destination cell
// (bounce-back), which places the no-slip plane halfway into the wall
// layer. out must not alias fL, fC or fR.
func (k *KernelOf[T]) Stream(fL, fC, fR, out [][]T) {
	nz := k.NZ
	o := &k.pull
	for c := 0; c < k.NComp; c++ {
		fl, fc, fr, oc := fL[c], fC[c], fR[c], out[c]
		for y := 1; y < k.NY-1; y++ {
			for z := 1; z < nz-1; z++ {
				cell := y*nz + z
				base := cell * lattice.Q19
				if k.solid[cell] {
					for i := 0; i < lattice.Q19; i++ {
						oc[base+i] = 0
					}
					continue
				}
				if !k.nearSolid[cell] {
					// No solid source: every population is a plain copy
					// from the precomputed pull offset — directions with
					// e_x = +1 pull from the left plane, e_x = -1 from
					// the right, e_x = 0 in-plane.
					ob := oc[base : base+lattice.Q19 : base+lattice.Q19]
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
				oc[base] = fc[base] // rest population
				for i := 1; i < lattice.Q19; i++ {
					sy := y - lattice.Ey[i]
					sz := z - lattice.Ez[i]
					scell := sy*nz + sz
					if k.solid[scell] {
						oc[base+i] = fc[base+lattice.Opposite[i]]
						continue
					}
					switch lattice.Ex[i] {
					case 1:
						oc[base+i] = fl[scell*lattice.Q19+i]
					case 0:
						oc[base+i] = fc[scell*lattice.Q19+i]
					default:
						oc[base+i] = fr[scell*lattice.Q19+i]
					}
				}
			}
		}
		for z := 0; z < nz; z++ {
			zeroCell(oc, (0*nz+z)*lattice.Q19)
			zeroCell(oc, ((k.NY-1)*nz+z)*lattice.Q19)
		}
		for y := 0; y < k.NY; y++ {
			zeroCell(oc, (y*nz+0)*lattice.Q19)
			zeroCell(oc, (y*nz+nz-1)*lattice.Q19)
		}
	}
}

// InitEquilibrium fills one distribution plane with the rest-state
// equilibrium of uniform number density n0 on fluid cells, zero on
// solids.
func (k *KernelOf[T]) InitEquilibrium(plane []T, n0 float64) {
	var feq [lattice.Q19]T
	lattice.EquilibriumOf(T(n0), 0, 0, 0, &feq)
	nz := k.NZ
	for y := 0; y < k.NY; y++ {
		for z := 0; z < nz; z++ {
			cell := y*nz + z
			base := cell * lattice.Q19
			if k.solid[cell] {
				zeroCell(plane, base)
				continue
			}
			copy(plane[base:base+lattice.Q19], feq[:])
		}
	}
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
