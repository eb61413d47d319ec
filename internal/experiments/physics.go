package experiments

import (
	"fmt"
	"runtime"
	"strings"

	"microslip/internal/geometry"
	"microslip/internal/lbm"
	"microslip/internal/measure"
	"microslip/internal/runctl"
	"microslip/internal/units"
)

// PhysicsSetup fixes the fluid-slip simulation parameters. The paper
// runs 400 x 200 x 20 points (2 x 1 x 0.1 um at 5 nm spacing) for
// 20,000+ phases; the default here is a reduced channel that resolves
// the same near-wall depletion physics in minutes.
type PhysicsSetup struct {
	NX, NY, NZ int
	Steps      int
	// SampleZ is the z row for the y-profiles (paper: z = 50 nm, the
	// channel mid-depth).
	SampleZ int
	// SteadyTol, when positive, stops each run early once the relative
	// velocity-change residual falls below it (Steps becomes the
	// budget); zero runs exactly Steps phases.
	SteadyTol float64
	// Precision selects the solver's scalar type (lbm.F64 default);
	// RunPrecisionAccuracy compares the two on this setup.
	Precision lbm.Precision
	// Sup, when non-nil, supervises the runs: cancellation or wall-limit
	// expiry stops them at the next step boundary with the typed cause
	// (slipsim's SIGINT path).
	Sup *runctl.Supervisor
}

// DefaultPhysics returns the reduced-scale configuration.
func DefaultPhysics() PhysicsSetup {
	return PhysicsSetup{NX: 32, NY: 48, NZ: 12, Steps: 3000, SampleZ: 6}
}

// PhysicsResult carries the Figure 6 density profiles and the Figure 7
// velocity profiles.
type PhysicsResult struct {
	Setup PhysicsSetup
	// DistanceNM[i] is the distance of fluid row i+1 from the side
	// wall in nanometers.
	DistanceNM []float64
	// WaterDensity and AirDensity are component densities along y with
	// hydrophobic wall forces on (Figure 6 A and B), normalized by
	// their bulk (mid-channel) values.
	WaterDensity, AirDensity []float64
	// VelForced and VelFree are streamwise velocities along y,
	// normalized by the centerline velocity, with and without wall
	// forces (Figure 7).
	VelForced, VelFree []float64
	// SlipPercent is the apparent slip at the first fluid node:
	// u_forced/u0 - u_free/u0 there, in percent of free-stream (the
	// paper reports ~10%).
	SlipPercent float64
	// SlipLengthNM is the Navier slip length extrapolated from the
	// near-wall profile of the wall-force run, in nanometers; the
	// microfluidics literature reports apparent slip this way.
	SlipLengthNM float64
	// SlipLengthFreeNM is the same for the force-free run (should be
	// near zero: bounce-back walls are no-slip).
	SlipLengthFreeNM float64
}

// advance runs s for steps steps on every CPU (intra-node parallelism
// is bit-identical to serial stepping) under the setup's supervisor,
// stopping early at the steady criterion when SteadyTol is set, then
// checks the field is finite.
func (setup PhysicsSetup) advance(s lbm.Stepper, steps int) error {
	s.SetWorkers(runtime.GOMAXPROCS(0))
	var err error
	if setup.SteadyTol > 0 {
		check := steps / 20
		if check < 1 {
			check = 1
		}
		_, err = lbm.RunToSteady(s, setup.Sup, steps, check, setup.SteadyTol)
	} else {
		_, err = s.RunSupervised(steps, setup.Sup)
	}
	if err != nil {
		return err
	}
	return s.CheckFinite()
}

// RunSlipPhysics reproduces Figures 6 and 7: one run with the
// hydrophobic wall forces and one without, sampling densities and
// velocity profiles at mid-channel.
func RunSlipPhysics(setup PhysicsSetup) (*PhysicsResult, error) {
	run := func(withWallForce bool) (lbm.Solver, error) {
		p := lbm.WaterAir(setup.NX, setup.NY, setup.NZ)
		p.Precision = setup.Precision
		if !withWallForce {
			p.WallForceComp = -1
		}
		s, err := lbm.NewSolver(p)
		if err != nil {
			return nil, err
		}
		return s, setup.advance(s, setup.Steps)
	}
	forced, err := run(true)
	if err != nil {
		return nil, err
	}
	free, err := run(false)
	if err != nil {
		return nil, err
	}

	res := &PhysicsResult{Setup: setup}
	x := setup.NX / 2
	z := setup.SampleZ
	yc := setup.NY / 2
	wBulk := forced.Density(0, x, yc, z)
	aBulk := forced.Density(1, x, yc, z)
	if wBulk <= 0 || aBulk <= 0 {
		return nil, fmt.Errorf("experiments: vanished bulk density (water %v, air %v)", wBulk, aBulk)
	}
	uF := forced.VelocityProfileY(x, z)
	uN := free.VelocityProfileY(x, z)
	u0F := uF[yc]
	u0N := uN[yc]
	if u0F <= 0 || u0N <= 0 {
		return nil, fmt.Errorf("experiments: no streamwise flow developed")
	}
	ch := geometry.NewChannel(setup.NX, setup.NY, setup.NZ)
	for y := 1; y < setup.NY-1; y++ {
		d, _ := ch.WallDistanceY(y)
		res.DistanceNM = append(res.DistanceNM, d*units.GridSpacing*1e9)
		res.WaterDensity = append(res.WaterDensity, forced.Density(0, x, y, z)/wBulk)
		res.AirDensity = append(res.AirDensity, forced.Density(1, x, y, z)/aBulk)
		res.VelForced = append(res.VelForced, uF[y]/u0F)
		res.VelFree = append(res.VelFree, uN[y]/u0N)
	}
	res.SlipPercent = 100 * (res.VelForced[0] - res.VelFree[0])

	// Navier slip lengths from the near-wall profiles (lattice units ->
	// nm). Use the lower half of the channel, raw velocities.
	slipLength := func(u []float64) (float64, error) {
		half := setup.NY / 2
		dist := make([]float64, 0, half)
		vel := make([]float64, 0, half)
		for y := 1; y < half; y++ {
			d, _ := ch.WallDistanceY(y)
			dist = append(dist, d)
			vel = append(vel, u[y])
		}
		prof, err := measure.NewProfile(dist, vel)
		if err != nil {
			return 0, err
		}
		return prof.SlipLength(3)
	}
	const nmPerLattice = units.GridSpacing * 1e9
	if b, err := slipLength(uF); err == nil {
		res.SlipLengthNM = b * nmPerLattice
	}
	if b, err := slipLength(uN); err == nil {
		res.SlipLengthFreeNM = b * nmPerLattice
	}
	return res, nil
}

// Table renders the near-wall rows of Figures 6 and 7.
func (r *PhysicsResult) Table() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Figures 6-7: near-wall profiles at mid-channel (%dx%dx%d, %d steps)\n",
		r.Setup.NX, r.Setup.NY, r.Setup.NZ, r.Setup.Steps)
	fmt.Fprintf(&sb, "%10s %14s %14s %12s %12s\n",
		"dist (nm)", "water rho/bulk", "air rho/bulk", "u/u0 forced", "u/u0 free")
	half := len(r.DistanceNM) / 2
	for i := 0; i < half; i++ {
		fmt.Fprintf(&sb, "%10.1f %14.4f %14.4f %12.4f %12.4f\n",
			r.DistanceNM[i], r.WaterDensity[i], r.AirDensity[i], r.VelForced[i], r.VelFree[i])
	}
	fmt.Fprintf(&sb, "apparent slip at the wall: %.1f%% of free-stream velocity (paper: ~10%%)\n", r.SlipPercent)
	fmt.Fprintf(&sb, "Navier slip length: %.1f nm with wall forces, %.1f nm without\n",
		r.SlipLengthNM, r.SlipLengthFreeNM)
	return sb.String()
}

// CSV renders the full profiles as comma-separated rows for plotting.
func (r *PhysicsResult) CSV() string {
	var sb strings.Builder
	sb.WriteString("distance_nm,water_density,air_density,u_forced,u_free\n")
	for i := range r.DistanceNM {
		fmt.Fprintf(&sb, "%.3f,%.6f,%.6f,%.6f,%.6f\n",
			r.DistanceNM[i], r.WaterDensity[i], r.AirDensity[i], r.VelForced[i], r.VelFree[i])
	}
	return sb.String()
}
