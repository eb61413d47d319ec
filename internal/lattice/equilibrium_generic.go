package lattice

import "microslip/internal/num"

// EquilibriumOf is the precision-generic D3Q19 BGK equilibrium: the
// unrolled expression tree Equilibrium delegates to, evaluated in T.
// For T = float32 the constants are the correctly rounded
// single-precision values.
func EquilibriumOf[T num.Float](rho, ux, uy, uz T, feq *[Q19]T) {
	usq := 1.5 * (ux*ux + uy*uy + uz*uz)
	ra := rho * (1.0 / 18.0)
	rd := rho * (1.0 / 36.0)
	feq[0] = rho * (1.0 / 3.0) * (1 - usq)
	feq[1] = ra * (1 + 3*ux + 4.5*ux*ux - usq)
	feq[2] = ra * (1 - 3*ux + 4.5*ux*ux - usq)
	feq[3] = ra * (1 + 3*uy + 4.5*uy*uy - usq)
	feq[4] = ra * (1 - 3*uy + 4.5*uy*uy - usq)
	feq[5] = ra * (1 + 3*uz + 4.5*uz*uz - usq)
	feq[6] = ra * (1 - 3*uz + 4.5*uz*uz - usq)
	e := ux + uy
	feq[7] = rd * (1 + 3*e + 4.5*e*e - usq)
	feq[8] = rd * (1 - 3*e + 4.5*e*e - usq)
	e = ux - uy
	feq[9] = rd * (1 + 3*e + 4.5*e*e - usq)
	feq[10] = rd * (1 - 3*e + 4.5*e*e - usq)
	e = ux + uz
	feq[11] = rd * (1 + 3*e + 4.5*e*e - usq)
	feq[12] = rd * (1 - 3*e + 4.5*e*e - usq)
	e = ux - uz
	feq[13] = rd * (1 + 3*e + 4.5*e*e - usq)
	feq[14] = rd * (1 - 3*e + 4.5*e*e - usq)
	e = uy + uz
	feq[15] = rd * (1 + 3*e + 4.5*e*e - usq)
	feq[16] = rd * (1 - 3*e + 4.5*e*e - usq)
	e = uy - uz
	feq[17] = rd * (1 + 3*e + 4.5*e*e - usq)
	feq[18] = rd * (1 - 3*e + 4.5*e*e - usq)
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
