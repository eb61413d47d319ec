package lattice

import "microslip/internal/num"

// EquilibriumOf is the precision-generic D3Q19 BGK equilibrium: the
// unrolled expression tree Equilibrium delegates to, evaluated in T.
// For T = float32 the constants are the correctly rounded
// single-precision values. The expressions live in EqBasis and EqPair,
// which the collision kernel calls directly so it can relax toward each
// population without storing the equilibrium first.
func EquilibriumOf[T num.Float](rho, ux, uy, uz T, feq *[Q19]T) {
	rest, usq, ra, rd := EqBasis(rho, ux, uy, uz)
	feq[0] = rest
	feq[1], feq[2] = EqPair(ra, ux, usq)
	feq[3], feq[4] = EqPair(ra, uy, usq)
	feq[5], feq[6] = EqPair(ra, uz, usq)
	feq[7], feq[8] = EqPair(rd, ux+uy, usq)
	feq[9], feq[10] = EqPair(rd, ux-uy, usq)
	feq[11], feq[12] = EqPair(rd, ux+uz, usq)
	feq[13], feq[14] = EqPair(rd, ux-uz, usq)
	feq[15], feq[16] = EqPair(rd, uy+uz, usq)
	feq[17], feq[18] = EqPair(rd, uy-uz, usq)
}

// EqBasis returns the terms every D3Q19 equilibrium population shares:
// the rest population, usq = 3/2 u.u, and the density times the face
// (1/18) and edge (1/36) weights.
func EqBasis[T num.Float](rho, ux, uy, uz T) (rest, usq, ra, rd T) {
	usq = 1.5 * (ux*ux + uy*uy + uz*uz)
	return rho * (1.0 / 3.0) * (1 - usq), usq, rho * (1.0 / 18.0), rho * (1.0 / 36.0)
}

// EqPair returns the equilibrium populations of the direction pair +e
// and -e from wr = w*rho and the projection eu = e.u:
//
//	f_+-^eq = w rho [1 +- 3 e.u + 9/2 (e.u)^2 - 3/2 u.u]
func EqPair[T num.Float](wr, eu, usq T) (plus, minus T) {
	return wr * (1 + 3*eu + 4.5*eu*eu - usq), wr * (1 - 3*eu + 4.5*eu*eu - usq)
}

// WeightsOf returns the D3Q19 quadrature weights rounded to T.
func WeightsOf[T num.Float]() [Q19]T {
	var w [Q19]T
	w[0] = 1.0 / 3.0
	for i := 1; i <= 6; i++ {
		w[i] = 1.0 / 18.0
	}
	for i := 7; i < Q19; i++ {
		w[i] = 1.0 / 36.0
	}
	return w
}
