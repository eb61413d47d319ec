// Command benchtables regenerates every table and figure of the
// paper's evaluation (Section 4) plus the ablation studies, printing
// each as an ASCII table and optionally writing them under a results
// directory.
//
// Usage:
//
//	benchtables [-quick] [-out results] [-exp all|fig3|fig6|fig7|fig8|fig9|fig10|table1|speedup|ablations]
//
// -quick shrinks phase counts and the physics grid so the full sweep
// finishes in well under a minute; the default runs the paper-scale
// phase counts (20,000 for Figure 8) and a larger physics grid.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"

	"microslip/internal/experiments"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchtables: ")
	var (
		quick = flag.Bool("quick", false, "reduced sizes for a fast sweep")
		out   = flag.String("out", "", "directory to write per-experiment .txt files")
		exp   = flag.String("exp", "all", "which experiment to run")
	)
	flag.Parse()

	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			log.Fatal(err)
		}
	}

	setup := experiments.PaperSetup()
	figPhases := 600
	fig8Phases := 20000
	table1Phases := 100
	physics := experiments.PhysicsSetup{NX: 64, NY: 64, NZ: 16, Steps: 6000, SampleZ: 8}
	if *quick {
		figPhases = 300
		fig8Phases = 2000
		physics = experiments.PhysicsSetup{NX: 16, NY: 40, NZ: 10, Steps: 1500, SampleZ: 5}
	}

	type job struct {
		name string
		run  func() (fmt.Stringer, error)
	}
	table := func(f func() (interface{ Table() string }, error)) func() (fmt.Stringer, error) {
		return func() (fmt.Stringer, error) {
			r, err := f()
			if err != nil {
				return nil, err
			}
			out := r.Table()
			if p, ok := r.(interface{ PlotDensity() string }); ok {
				out += "\n" + p.PlotDensity()
			}
			if p, ok := r.(interface{ Plot() string }); ok {
				out += "\n" + p.Plot()
			}
			return stringer{out}, nil
		}
	}
	jobs := []job{
		{"fig3", table(func() (interface{ Table() string }, error) {
			return experiments.RunFig3(setup, figPhases, []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0})
		})},
		{"fig6-fig7", table(func() (interface{ Table() string }, error) {
			return experiments.RunSlipPhysics(physics)
		})},
		{"speedup", table(func() (interface{ Table() string }, error) {
			return experiments.RunSpeedupCurve(setup, figPhases, []int{1, 2, 4, 8, 10, 16, 20})
		})},
		{"fig8", table(func() (interface{ Table() string }, error) {
			return experiments.RunFig8(setup, fig8Phases, 5)
		})},
		{"fig9", table(func() (interface{ Table() string }, error) {
			return experiments.RunFig9(setup, figPhases)
		})},
		{"fig10", table(func() (interface{ Table() string }, error) {
			return experiments.RunFig10(setup, figPhases, 5)
		})},
		{"table1", table(func() (interface{ Table() string }, error) {
			return experiments.RunTable1(setup, table1Phases, []float64{1, 2, 3, 4})
		})},
		{"ablation-predictors", table(func() (interface{ Table() string }, error) {
			return experiments.RunAblationPredictors(setup, figPhases)
		})},
		{"ablation-overredistribution", table(func() (interface{ Table() string }, error) {
			return experiments.RunAblationOverRedistribution(setup, figPhases)
		})},
		{"ablation-laziness", table(func() (interface{ Table() string }, error) {
			return experiments.RunAblationLaziness(setup, figPhases)
		})},
		{"ablation-threshold", table(func() (interface{ Table() string }, error) {
			return experiments.RunAblationThreshold(setup, figPhases)
		})},
		{"ablation-wallforce", table(func() (interface{ Table() string }, error) {
			steps := 4000
			if *quick {
				steps = 1500
			}
			return experiments.RunWallForceSensitivity(2, 48, 10, steps,
				[]float64{0.025, 0.05, 0.1, 0.2, 0.4, 0.8}, []float64{1, 2, 4, 8})
		})},
	}

	want := strings.ToLower(*exp)
	matched := false
	for _, j := range jobs {
		if want != "all" &&
			!(want == j.name) &&
			!(want == "fig6" && j.name == "fig6-fig7") &&
			!(want == "fig7" && j.name == "fig6-fig7") &&
			!(want == "ablations" && strings.HasPrefix(j.name, "ablation")) {
			continue
		}
		matched = true
		s, err := j.run()
		if err != nil {
			log.Fatalf("%s: %v", j.name, err)
		}
		fmt.Printf("==== %s ====\n%s\n", j.name, s)
		if *out != "" {
			path := filepath.Join(*out, j.name+".txt")
			if err := os.WriteFile(path, []byte(s.String()), 0o644); err != nil {
				log.Fatal(err)
			}
		}
	}
	if !matched {
		log.Fatalf("unknown experiment %q", *exp)
	}
}

type stringer struct{ s string }

func (s stringer) String() string { return s.s }
