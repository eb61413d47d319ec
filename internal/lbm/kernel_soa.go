package lbm

import (
	"microslip/internal/lattice"
	"microslip/internal/num"
)

// SoA kernel variants. An SoA plane stores distribution values
// direction-major — value (y, z, i) at i*(NY*NZ) + (y*NZ+z) — so the
// sweep over one direction is a contiguous lane walk instead of a
// Q19-stride gather. Every method here evaluates exactly the expression
// tree of its AoS counterpart per cell (the sums are grouped
// identically, streaming stays pure copies), so AoS and SoA runs are
// bit-identical; only the memory addresses differ.
//
// Scalar (density) planes are layout-agnostic: they keep the y*NZ+z
// ordering everywhere, so the psi-gradient stencil reads them the same
// way in both layouts.

// DensitiesSoA is Densities over SoA distribution planes: the same
// pairwise tree sum per cell, reading one value from each of the 19
// lanes.
func (k *KernelOf[T]) DensitiesSoA(f [][]T, n [][]T) {
	cells := k.PlaneCells()
	for c := 0; c < k.NComp; c++ {
		fc, nc := f[c], n[c]
		lv := laneViews(fc, cells)
		for cell := 0; cell < cells; cell++ {
			s := ((lv[0][cell] + lv[1][cell]) + (lv[2][cell] + lv[3][cell])) +
				((lv[4][cell] + lv[5][cell]) + (lv[6][cell] + lv[7][cell]))
			s += ((lv[8][cell] + lv[9][cell]) + (lv[10][cell] + lv[11][cell])) +
				((lv[12][cell] + lv[13][cell]) + (lv[14][cell] + lv[15][cell]))
			s += (lv[16][cell] + lv[17][cell]) + lv[18][cell]
			nc[cell] = s
		}
	}
}

// DensitiesMomentsSoA is DensitiesSoA fused with the momentum-lane
// computation of the SoA collision's pass A: one walk over the 19
// direction lanes yields both the density (the same pairwise tree sum
// as Densities) and the three momentum sums (the same signed direction
// groups as CollideScratch), with every lane value loaded once. The
// fused stepping path uses it so collide does not re-read the
// distribution lanes for momenta; mom[c][a] receives momentum lane a
// of component c, consumed by collideScratchSoA.
func (k *KernelOf[T]) DensitiesMomentsSoA(f [][]T, n [][]T, mom [][3][]T) {
	cells := k.PlaneCells()
	for c := 0; c < k.NComp; c++ {
		fc, nc := f[c], n[c]
		lv := laneViews(fc, cells)
		px := mom[c][0][:cells:cells]
		py := mom[c][1][:cells:cells]
		pz := mom[c][2][:cells:cells]
		for cell := 0; cell < cells; cell++ {
			s := ((lv[0][cell] + lv[1][cell]) + (lv[2][cell] + lv[3][cell])) +
				((lv[4][cell] + lv[5][cell]) + (lv[6][cell] + lv[7][cell]))
			s += ((lv[8][cell] + lv[9][cell]) + (lv[10][cell] + lv[11][cell])) +
				((lv[12][cell] + lv[13][cell]) + (lv[14][cell] + lv[15][cell]))
			s += (lv[16][cell] + lv[17][cell]) + lv[18][cell]
			nc[cell] = s
			px[cell] = (lv[1][cell] + lv[7][cell] + lv[9][cell] + lv[11][cell] + lv[13][cell]) -
				(lv[2][cell] + lv[8][cell] + lv[10][cell] + lv[12][cell] + lv[14][cell])
			py[cell] = (lv[3][cell] + lv[7][cell] + lv[10][cell] + lv[15][cell] + lv[17][cell]) -
				(lv[4][cell] + lv[8][cell] + lv[9][cell] + lv[16][cell] + lv[18][cell])
			pz[cell] = (lv[5][cell] + lv[11][cell] + lv[14][cell] + lv[15][cell] + lv[18][cell]) -
				(lv[6][cell] + lv[12][cell] + lv[13][cell] + lv[16][cell] + lv[17][cell])
		}
	}
}

// laneViews splits an SoA plane into its 19 per-direction lanes. The
// returned array of slice headers lives on the caller's stack; no
// allocation.
func laneViews[T num.Float](p []T, cells int) (v [lattice.Q19][]T) {
	for i := 0; i < lattice.Q19; i++ {
		v[i] = p[i*cells : (i+1)*cells : (i+1)*cells]
	}
	return v
}

// CollideSoA is Collide over SoA planes (allocating form).
func (k *KernelOf[T]) CollideSoA(nL, nC, nR, fC, out [][]T) {
	k.CollideScratchSoA(k.NewScratch(), nL, nC, nR, fC, out)
}

// CollideScratchSoA is CollideScratch over SoA distribution planes.
// Density planes (nL, nC, nR) keep the scalar layout. The arithmetic —
// momentum group sums, psi-gradient stencil, force assembly,
// equilibrium, relaxation — is transcribed term for term from
// CollideScratch, so the output is bit-equal to the AoS path after
// transposition.
//
// The sweep is split into three plane-wide passes so no loop
// interleaves more than ~20 memory streams (a single cell-major pass
// over SoA storage touches 19 load lanes plus 19 store lanes per
// component and defeats the hardware prefetcher):
//
//	A. per component, lane-major: the three momentum lanes, each a
//	   signed sum over contiguous direction lanes;
//	B. cell-major over the interior: densities, psi-gradient,
//	   forces, and the equilibrium inputs (ueq, usq —
//	   EquilibriumOf's shared prefix) into plane-length lanes;
//	C. per component, lane-major: each direction pair's equilibrium
//	   tail and the BGK relaxation dst = v - (v-feq)*invTau as one
//	   contiguous few-stream loop over the whole plane.
//
// Intermediates are stored and reloaded at working precision, which is
// exact, and the per-lane equilibrium tails in pass C evaluate the
// same expressions EquilibriumOf does, so the split preserves
// bit-identity with the single-pass AoS kernel. Passes A and C run
// over frame and solid cells too (their lane walks are contiguous);
// those outputs are garbage and are zeroed afterwards, exactly where
// the AoS kernel writes zeros.
func (k *KernelOf[T]) CollideScratchSoA(sc *ScratchOf[T], nL, nC, nR, fC, out [][]T) {
	k.collideScratchSoA(sc, nL, nC, nR, fC, out, nil)
}

// collideScratchSoA is CollideScratchSoA with an optional external
// momentum source: when momIn is non-nil it holds this plane's
// momentum lanes (as computed by DensitiesMomentsSoA, bit-equal to
// pass A's) and pass A is skipped entirely — the fused path uses this
// to avoid a second full read of the distribution lanes.
func (k *KernelOf[T]) collideScratchSoA(sc *ScratchOf[T], nL, nC, nR, fC, out [][]T, momIn [][3][]T) {
	nz, ncomp := k.NZ, k.NComp
	cells := k.PlaneCells()
	var psiGrad [3]T
	nHere := sc.nHere
	grads := sc.grads
	moms := momIn
	if moms == nil {
		moms = sc.momLanes
	}

	// The three passes are tiled over blocks of y-rows so each block's
	// distribution lanes, loaded by pass A, are still cache-resident
	// when pass C re-reads them for the relaxation; without the tiling
	// the second lane read of a paper-sized plane comes from L3/DRAM
	// and the pass split loses what it saved in prefetch behaviour.
	// The tile targets ~2.5 KB per lane chunk — ~46 hot chunks must
	// fit in L2 alongside the scalar planes — so the cell count
	// doubles at float32.
	tile := 320
	if _, f32 := any(*new(T)).(float32); f32 {
		tile = 640
	}
	blockRows := 1
	if nz < tile {
		blockRows = (tile + nz - 1) / nz
	}

	for y0 := 1; y0 < k.NY-1; y0 += blockRows {
		y1 := y0 + blockRows
		if y1 > k.NY-1 {
			y1 = k.NY - 1
		}
		lo, hi := y0*nz, y1*nz
		span := hi - lo

		// Pass A: momentum lanes, one contiguous walk per direction
		// lane over the block (z-frame values are computed but never
		// read back). The direction groups match the AoS kernel's
		// signed sums term for term. Skipped when the caller provided
		// precomputed momentum lanes.
		for c := 0; momIn == nil && c < ncomp; c++ {
			fc := fC[c]
			var fl [lattice.Q19][]T
			for i := 1; i < lattice.Q19; i++ {
				o := i*cells + lo
				fl[i] = fc[o : o+span : o+span]
			}
			f1, f2, f3, f4, f5, f6 := fl[1], fl[2], fl[3], fl[4], fl[5], fl[6]
			f7, f8, f9, f10, f11, f12 := fl[7], fl[8], fl[9], fl[10], fl[11], fl[12]
			f13, f14, f15, f16, f17, f18 := fl[13], fl[14], fl[15], fl[16], fl[17], fl[18]
			px := sc.momLanes[c][0][lo:hi:hi]
			py := sc.momLanes[c][1][lo:hi:hi]
			pz := sc.momLanes[c][2][lo:hi:hi]
			for j := 0; j < span; j++ {
				px[j] = (f1[j] + f7[j] + f9[j] + f11[j] + f13[j]) -
					(f2[j] + f8[j] + f10[j] + f12[j] + f14[j])
				py[j] = (f3[j] + f7[j] + f10[j] + f15[j] + f17[j]) -
					(f4[j] + f8[j] + f9[j] + f16[j] + f18[j])
				pz[j] = (f5[j] + f11[j] + f14[j] + f15[j] + f18[j]) -
					(f6[j] + f12[j] + f13[j] + f16[j] + f17[j])
			}
		}

		// Pass B: cell-major physics over the block interior. Momentum
		// comes back out of the lane buffers (stored at working
		// precision, so bit-exact); everything else is the AoS code on
		// scalar planes. The equilibrium inputs land in plane-length
		// lanes for pass C. Solid cells are skipped here and zeroed
		// after pass C.
		for y := y0; y < y1; y++ {
			for z := 1; z < nz-1; z++ {
				cell := y*nz + z
				if k.solid[cell] {
					continue
				}

				var momSum [3]T
				var den T
				bulk := !k.nearSolid[cell]
				for c := 0; c < ncomp; c++ {
					ml := &moms[c]
					px, py, pz := ml[0][cell], ml[1][cell], ml[2][cell]
					nHere[c] = nC[c][cell]
					mt := k.mass[c] * k.invTau[c]
					momSum[0] += mt * px
					momSum[1] += mt * py
					momSum[2] += mt * pz
					den += mt * nHere[c]

					if bulk {
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
					if c == k.wallComp && k.wallFy != nil {
						fy += rho * k.wallFy[cell]
						fz += rho * k.wallFz[cell]
					}
					if k.adhesion != nil && k.adhesion[c] != 0 {
						fy -= k.adhesion[c] * rho * k.adhY[cell]
						fz -= k.adhesion[c] * rho * k.adhZ[cell]
					}
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
					// The equilibrium inputs pass C cannot rederive
					// cheaply: the equilibrium velocity and the speed
					// term, computed exactly as EquilibriumOf's prefix.
					// (The rho-proportional weight factors come straight
					// from the density plane in pass C.)
					usq := 1.5 * (ueqx*ueqx + ueqy*ueqy + ueqz*ueqz)
					el := &sc.eqLanes[c]
					el[0][cell] = ueqx
					el[1][cell] = ueqy
					el[2][cell] = ueqz
					el[3][cell] = usq
				}
			}
		}

		// Pass C: equilibrium tails and BGK relaxation, lane-major over
		// the block — one contiguous loop per opposite direction pair,
		// none interleaving more than eight streams. Entries of the eq
		// lanes at skipped (solid) and z-frame cells are stale; those
		// outputs are zeroed just below.
		for c := 0; c < ncomp; c++ {
			fc, oc := fC[c], out[c]
			it := k.invTau[c]
			el := &sc.eqLanes[c]
			ux := el[0][lo:hi:hi]
			uy := el[1][lo:hi:hi]
			uz := el[2][lo:hi:hi]
			usq := el[3][lo:hi:hi]
			// The density plane doubles as the equilibrium weight input:
			// EquilibriumOf's rest, axis, and diagonal prefactors are
			// rho/3*(1-usq), rho/18, and rho/36, recomputed here from
			// the same density value pass B read (one multiply each)
			// instead of carried as three more lanes.
			nv := nC[c][lo:hi:hi]
			lane := func(i int) []T { o := i*cells + lo; return fc[o : o+span : o+span] }
			olane := func(i int) []T { o := i*cells + lo; return oc[o : o+span : o+span] }

			// Rest population and the three axis pairs fused into one
			// 19-stream walk (7 src + 7 dst lanes plus the five input
			// lanes): the equilibrium-input lanes are read once here
			// instead of once per pair, in EquilibriumOf's lane order.
			relaxRestAxes(olane(0), olane(1), olane(2), olane(3), olane(4), olane(5), olane(6),
				lane(0), lane(1), lane(2), lane(3), lane(4), lane(5), lane(6),
				nv, ux, uy, uz, usq, it)
			// Diagonal pairs, in EquilibriumOf's lane order.
			relaxDiagQuad(olane(7), olane(8), olane(9), olane(10),
				lane(7), lane(8), lane(9), lane(10), nv, ux, uy, usq, it)
			relaxDiagQuad(olane(11), olane(12), olane(13), olane(14),
				lane(11), lane(12), lane(13), lane(14), nv, ux, uz, usq, it)
			relaxDiagQuad(olane(15), olane(16), olane(17), olane(18),
				lane(15), lane(16), lane(17), lane(18), nv, uy, uz, usq, it)
		}
	}

	// Interior solid cells: the relaxation above wrote through them;
	// zero all lanes, matching the AoS kernel's unconditional zeroing.
	// fixSolid lists every interior solid cell.
	for _, cc := range k.fixSolid {
		cell := int(cc)
		for c := 0; c < ncomp; c++ {
			oc := out[c]
			for i := 0; i < lattice.Q19; i++ {
				oc[i*cells+cell] = 0
			}
		}
	}
	k.zeroSolidBoundarySoA(out)
}

// relaxRestAxes applies the BGK relaxation for the rest population and
// the three ± axis direction pairs over a block of SoA lanes in one
// walk: feq0 = rho/3*(1 - usq), feq± = rho/18*(1 ± 3u + 4.5*u*u -
// usq), dst = v - (v-feq)*invTau. The weights and tails are term for
// term EquilibriumOf's lane expressions, so the result is bit-equal to
// relaxing against a per-cell EquilibriumOf call; fusing the four
// loops reads the shared equilibrium-input lanes once instead of once
// per pair while staying within the ~20-stream prefetcher budget.
func relaxRestAxes[T num.Float](dst0, dstXP, dstXM, dstYP, dstYM, dstZP, dstZM,
	src0, srcXP, srcXM, srcYP, srcYM, srcZP, srcZM, nv, ux, uy, uz, usq []T, it T) {
	n := len(dst0)
	dstXP, dstXM = dstXP[:n:n], dstXM[:n:n]
	dstYP, dstYM = dstYP[:n:n], dstYM[:n:n]
	dstZP, dstZM = dstZP[:n:n], dstZM[:n:n]
	src0, srcXP, srcXM = src0[:n:n], srcXP[:n:n], srcXM[:n:n]
	srcYP, srcYM = srcYP[:n:n], srcYM[:n:n]
	srcZP, srcZM = srcZP[:n:n], srcZM[:n:n]
	nv, usq = nv[:n:n], usq[:n:n]
	ux, uy, uz = ux[:n:n], uy[:n:n], uz[:n:n]
	for j := 0; j < n; j++ {
		rho := nv[j]
		s := usq[j]
		f := rho * (1.0 / 3.0) * (1 - s)
		v := src0[j]
		dst0[j] = v - (v-f)*it
		w := rho * (1.0 / 18.0)
		e := ux[j]
		q := 4.5 * e * e
		fP := w * (1 + 3*e + q - s)
		fM := w * (1 - 3*e + q - s)
		v = srcXP[j]
		dstXP[j] = v - (v-fP)*it
		v = srcXM[j]
		dstXM[j] = v - (v-fM)*it
		e = uy[j]
		q = 4.5 * e * e
		fP = w * (1 + 3*e + q - s)
		fM = w * (1 - 3*e + q - s)
		v = srcYP[j]
		dstYP[j] = v - (v-fP)*it
		v = srcYM[j]
		dstYM[j] = v - (v-fM)*it
		e = uz[j]
		q = 4.5 * e * e
		fP = w * (1 + 3*e + q - s)
		fM = w * (1 - 3*e + q - s)
		v = srcZP[j]
		dstZP[j] = v - (v-fP)*it
		v = srcZM[j]
		dstZM[j] = v - (v-fM)*it
	}
}

// relaxDiagQuad is relaxAxisPair for the four diagonal directions in
// the ea±eb plane, in EquilibriumOf's lane order: +(a+b), -(a+b),
// +(a-b), -(a-b). Fusing the quad into one walk reads the shared
// equilibrium-input lanes once instead of twice; the diagonal weight
// is EquilibriumOf's rho*(1/36), recomputed from the density lane.
func relaxDiagQuad[T num.Float](dPP, dMM, dPM, dMP, sPP, sMM, sPM, sMP, nv, ua, ub, usq []T, it T) {
	n := len(dPP)
	dMM, dPM, dMP = dMM[:n:n], dPM[:n:n], dMP[:n:n]
	sPP, sMM, sPM, sMP = sPP[:n:n], sMM[:n:n], sPM[:n:n], sMP[:n:n]
	nv, ua, ub, usq = nv[:n:n], ua[:n:n], ub[:n:n], usq[:n:n]
	for j := 0; j < n; j++ {
		a := ua[j]
		b := ub[j]
		w := nv[j] * (1.0 / 36.0)
		s := usq[j]
		e := a + b
		q := 4.5 * e * e
		fP := w * (1 + 3*e + q - s)
		fM := w * (1 - 3*e + q - s)
		v := sPP[j]
		dPP[j] = v - (v-fP)*it
		v = sMM[j]
		dMM[j] = v - (v-fM)*it
		e = a - b
		q = 4.5 * e * e
		fP = w * (1 + 3*e + q - s)
		fM = w * (1 - 3*e + q - s)
		v = sPM[j]
		dPM[j] = v - (v-fP)*it
		v = sMP[j]
		dMP[j] = v - (v-fM)*it
	}
}

func (k *KernelOf[T]) zeroSolidBoundarySoA(out [][]T) {
	nz, cells := k.NZ, k.PlaneCells()
	for c := 0; c < k.NComp; c++ {
		oc := out[c]
		for i := 0; i < lattice.Q19; i++ {
			lane := oc[i*cells : (i+1)*cells : (i+1)*cells]
			for z := 0; z < nz; z++ {
				lane[z] = 0
				lane[(k.NY-1)*nz+z] = 0
			}
			for y := 0; y < k.NY; y++ {
				lane[y*nz] = 0
				lane[y*nz+nz-1] = 0
			}
		}
	}
}

// StreamSoA is Stream over SoA planes: fL, fC, fR and out are all
// direction-major.
//
// The sweep is lane-major: for each direction the bulk of the plane is
// one contiguous copy shifted by the per-direction cell offset; a fix-up
// pass then re-runs the checked per-direction logic — bounce-back
// included — on the near-solid and interior-solid cells, and the
// boundary frame is zeroed. Every value is still a pure copy of the same
// source value the AoS path reads, so the result is bit-equal after
// transposition.
func (k *KernelOf[T]) StreamSoA(fL, fC, fR, out [][]T) {
	nz, cells := k.NZ, k.PlaneCells()
	for c := 0; c < k.NComp; c++ {
		fl, fc, fr, oc := fL[c], fC[c], fR[c], out[c]

		// Bulk pass: per direction, shift the whole lane by the source
		// offset, clamped to in-plane sources. Out-of-range destination
		// cells are boundary cells (zeroed below); solid/near-solid
		// destinations get overwritten by the fix-up pass.
		copy(oc[:cells], fc[:cells]) // rest population
		for i := 1; i < lattice.Q19; i++ {
			d := k.pullCell[i]
			lo, hi := 0, cells
			if d < 0 {
				lo = -d
			} else {
				hi = cells - d
			}
			dst := oc[i*cells+lo : i*cells+hi]
			switch lattice.Ex[i] {
			case 0:
				copy(dst, fc[i*cells+lo+d:i*cells+hi+d])
			case 1:
				copy(dst, fl[i*cells+lo+d:i*cells+hi+d])
			default:
				copy(dst, fr[i*cells+lo+d:i*cells+hi+d])
			}
		}

		// Fix-up pass, from the fix-up program compiled at kernel build:
		// interior solid cells are zeroed, then per direction the
		// bounce-back and current/left/right-plane pulls run as
		// branch-free copy loops over the precomputed (dst, src) pairs —
		// the same values the checked per-cell logic (and the AoS
		// near-solid path) selects. The rest population needs no fixing:
		// its bulk copy is an exact unshifted copy.
		for _, cc := range k.fixSolid {
			cell := int(cc)
			for i := 0; i < lattice.Q19; i++ {
				oc[i*cells+cell] = 0
			}
		}
		for i := 1; i < lattice.Q19; i++ {
			off := i * cells
			opp := lattice.Opposite[i] * cells
			for _, cc := range k.fixBounce[i] {
				oc[off+int(cc)] = fc[opp+int(cc)]
			}
			for _, p := range k.fixSelf[i] {
				oc[off+int(p[0])] = fc[off+int(p[1])]
			}
			for _, p := range k.fixLeft[i] {
				oc[off+int(p[0])] = fl[off+int(p[1])]
			}
			for _, p := range k.fixRight[i] {
				oc[off+int(p[0])] = fr[off+int(p[1])]
			}
		}

		// Boundary frame (y = 0, NY-1 and z = 0, NZ-1): solid, keep zero.
		for i := 0; i < lattice.Q19; i++ {
			lane := oc[i*cells : (i+1)*cells : (i+1)*cells]
			for z := 0; z < nz; z++ {
				lane[z] = 0
				lane[(k.NY-1)*nz+z] = 0
			}
			for y := 0; y < k.NY; y++ {
				lane[y*nz] = 0
				lane[y*nz+nz-1] = 0
			}
		}
	}
}

// InitEquilibriumSoA fills one SoA distribution plane with the
// rest-state equilibrium of uniform number density n0 on fluid cells,
// zero on solids. The stored values are identical to InitEquilibrium's,
// transposed.
func (k *KernelOf[T]) InitEquilibriumSoA(plane []T, n0 float64) {
	var feq [lattice.Q19]T
	lattice.EquilibriumOf(T(n0), 0, 0, 0, &feq)
	cells := k.PlaneCells()
	for i := 0; i < lattice.Q19; i++ {
		lane := plane[i*cells : (i+1)*cells : (i+1)*cells]
		v := feq[i]
		for cell := 0; cell < cells; cell++ {
			if k.solid[cell] {
				lane[cell] = 0
			} else {
				lane[cell] = v
			}
		}
	}
}

// CellVelocitySoA is CellVelocity over SoA planes, accumulating the
// moment sums in exactly the same per-component, per-direction order.
func (k *KernelOf[T]) CellVelocitySoA(f [][]T, y, z int) (ux, uy, uz float64) {
	cell := y*k.NZ + z
	if k.solid[cell] {
		return 0, 0, 0
	}
	cells := k.PlaneCells()
	var px, py, pz, m T
	for c := 0; c < k.NComp; c++ {
		fc := f[c]
		for i := 0; i < lattice.Q19; i++ {
			v := fc[i*cells+cell] * k.mass[c]
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
