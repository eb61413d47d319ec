// Poiseuille validation: drives a single-component flow through a
// rectangular duct to steady state and compares the velocity field
// against the analytic series solution, demonstrating that the LBM
// kernel recovers Navier-Stokes behaviour.
package main

import (
	"flag"
	"fmt"
	"log"
	"math"

	"microslip"
	"microslip/internal/lbm"
)

func main() {
	log.SetFlags(0)
	var (
		ny    = flag.Int("ny", 23, "duct width in lattice points")
		nz    = flag.Int("nz", 15, "duct depth in lattice points")
		tau   = flag.Float64("tau", 1.0, "BGK relaxation time")
		gx    = flag.Float64("gx", 1e-6, "driving body force")
		steps = flag.Int("steps", 6000, "LBM phases")
	)
	flag.Parse()

	fmt.Println("== 3-D duct flow vs the analytic series solution ==")
	p := lbm.SingleFluid(4, *ny, *nz, *tau, *gx)
	s, err := microslip.NewSim(p)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := s.RunSupervised(*steps, nil); err != nil {
		log.Fatal(err)
	}
	nu := (*tau - 0.5) / 3
	a := float64(*ny-2) / 2 // fluid half-widths, walls at halfway planes
	b := float64(*nz-2) / 2
	yc, zc := float64(*ny-1)/2, float64(*nz-1)/2
	// exact returns the series velocity at (y, z); the LBM velocity gets
	// the half-force correction of the S-C shift forcing.
	exact := func(y, z int) float64 { return lbm.DuctExact(float64(y)-yc, float64(z)-zc, a, b, *gx, nu) }
	lbmU := func(y, z int) float64 {
		ux, _, _ := s.Velocity(0, y, z)
		return ux + 0.5**gx
	}

	var num, den float64
	for y := 1; y < *ny-1; y++ {
		for z := 1; z < *nz-1; z++ {
			d := lbmU(y, z) - exact(y, z)
			num += d * d
			den += exact(y, z) * exact(y, z)
		}
	}
	mid := *nz / 2
	fmt.Printf("profile across y at mid-depth z=%d:\n", mid)
	fmt.Printf("%6s %14s %14s %12s\n", "y", "u (LBM)", "u (exact)", "error")
	for y := 1; y < *ny-1; y += 2 {
		got, want := lbmU(y, mid), exact(y, mid)
		fmt.Printf("%6d %14.6e %14.6e %11.4f%%\n", y, got, want, 100*(got-want)/want)
	}
	fmt.Printf("relative L2 error over the cross-section: %.3f%%\n", 100*math.Sqrt(num/den))
}
