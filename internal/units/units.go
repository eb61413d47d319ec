// Package units holds the physical constants of the paper's microchannel
// experiment (Section 4), by which lattice results are reported in
// physical units: a 2.0 x 1.0 x 0.1
// micrometer channel discretized at 5 nm grid spacing into 400 x 200 x 20
// lattice points, simulating a water/air-vapor mixture.
package units

// Physical constants for the paper's setup.
const (
	// GridSpacing is the lattice spacing in meters (5 nm).
	GridSpacing = 5e-9
	// WaterDensity is the reference density of water in kg/m^3.
	WaterDensity = 1000.0
	// AirDensity is the density of air under standard conditions in
	// kg/m^3; the paper initializes the dissolved air from standard
	// conditions (~1.2e-4 g/cm^3 relative magnitude in Figure 6).
	AirDensity = 1.204
	// WaterKinematicViscosity in m^2/s at 20 C.
	WaterKinematicViscosity = 1.0e-6
)
