// Package lattice defines the discrete velocity set used by the lattice
// Boltzmann kernels: the three-dimensional D3Q19 stencil of the
// microchannel simulation (Figure 1 of the paper).
//
// Conventions:
//
//   - direction 0 is the rest velocity;
//   - Opposite[i] gives the direction with e_opp = -e_i (bounce-back);
//   - the weights satisfy the usual isotropy identities with lattice
//     sound speed c_s^2 = 1/3 (verified by property tests).
package lattice

// Q19 is the number of discrete velocities in the D3Q19 stencil.
const Q19 = 19

// CS2 is the squared lattice sound speed c_s^2.
const CS2 = 1.0 / 3.0

// D3Q19 velocity components. Direction groups:
//
//	0      : rest
//	1..6   : face neighbours (weight 1/18)
//	7..18  : edge neighbours (weight 1/36)
//
// The set of directions with Ex > 0 ({1,7,9,11,13}) is the data a node
// must send to its right (+x) neighbour under slice decomposition, and
// Ex < 0 ({2,8,10,12,14}) goes to the left neighbour, exactly as in
// Section 2.2 of the paper.
var (
	Ex = [Q19]int{0, 1, -1, 0, 0, 0, 0, 1, -1, 1, -1, 1, -1, 1, -1, 0, 0, 0, 0}
	Ey = [Q19]int{0, 0, 0, 1, -1, 0, 0, 1, -1, -1, 1, 0, 0, 0, 0, 1, -1, 1, -1}
	Ez = [Q19]int{0, 0, 0, 0, 0, 1, -1, 0, 0, 0, 0, 1, -1, -1, 1, 1, -1, -1, 1}
)

// W holds the D3Q19 quadrature weights.
var W = [Q19]float64{
	1.0 / 3.0,
	1.0 / 18.0, 1.0 / 18.0, 1.0 / 18.0, 1.0 / 18.0, 1.0 / 18.0, 1.0 / 18.0,
	1.0 / 36.0, 1.0 / 36.0, 1.0 / 36.0, 1.0 / 36.0, 1.0 / 36.0, 1.0 / 36.0,
	1.0 / 36.0, 1.0 / 36.0, 1.0 / 36.0, 1.0 / 36.0, 1.0 / 36.0, 1.0 / 36.0,
}

// Opposite maps each D3Q19 direction to its reverse.
var Opposite = [Q19]int{0, 2, 1, 4, 3, 6, 5, 8, 7, 10, 9, 12, 11, 14, 13, 16, 15, 18, 17}

// CrossQ is the number of D3Q19 populations that cross an x-face in one
// direction (those with Ex = +1, or those with Ex = -1).
const CrossQ = 5

// Equilibrium computes the D3Q19 BGK equilibrium distribution for density
// rho and velocity (ux, uy, uz), writing the Q19 populations into feq.
//
//	f_i^eq = w_i rho [1 + 3 e.u + 9/2 (e.u)^2 - 3/2 u.u]
//
// The directions are unrolled: each e.u is a signed sum of velocity
// components and each opposite pair shares its projection, which keeps
// this off the profile of the collision kernel that calls it per cell.
// The float64 body lives in the precision-generic EquilibriumOf.
func Equilibrium(rho, ux, uy, uz float64, feq *[Q19]float64) {
	EquilibriumOf(rho, ux, uy, uz, feq)
}

// Viscosity returns the dimensionless kinematic viscosity implied by the
// BGK relaxation time tau: nu = c_s^2 (tau - 1/2).
func Viscosity(tau float64) float64 { return CS2 * (tau - 0.5) }
