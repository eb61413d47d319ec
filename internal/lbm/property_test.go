package lbm

import (
	"math"
	"testing"
)

// Long-horizon conservation: each component's global mass must hold to
// relative 1e-9 over 100+ steps with coupling forces and wall adhesion
// active, and the state must stay finite throughout.
func TestMassConservationLongRun(t *testing.T) {
	steps := 150
	if testing.Short() {
		steps = 100
	}
	for _, tc := range []struct {
		name   string
		amp, g float64
	}{
		{"paper defaults", 0, 0},
		{"strong coupling", 0.004, 0.15},
		{"adhesion only", 0.006, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := WaterAir(8, 10, 6)
			if tc.amp > 0 {
				p.WallForceAmp = tc.amp
			}
			if tc.g > 0 {
				p.G[0][1], p.G[1][0] = tc.g, tc.g
			}
			s, err := NewSim(p)
			if err != nil {
				t.Fatal(err)
			}
			m0 := make([]float64, p.NComp())
			for c := range m0 {
				m0[c] = s.TotalMass(c)
			}
			checkEvery := 25
			for done := 0; done < steps; done += checkEvery {
				s.Run(checkEvery)
				if err := s.CheckFinite(); err != nil {
					t.Fatalf("after %d steps: %v", s.StepCount(), err)
				}
				for c := range m0 {
					m := s.TotalMass(c)
					if math.Abs(m-m0[c]) > 1e-9*m0[c] {
						t.Fatalf("component %d mass drifted %v -> %v after %d steps",
							c, m0[c], m, s.StepCount())
					}
				}
			}
		})
	}
}

// Worker-count independence over a long run: intra-node parallel
// stepping with 1, 2, and NX workers (one goroutine per plane) must
// track the serial solver bit for bit, including after 100+ steps where
// any reduction-order difference would have compounded.
func TestStepParallelWorkerSweepLongRun(t *testing.T) {
	steps := 120
	if testing.Short() {
		steps = 40
	}
	p := WaterAir(12, 8, 5)
	serial, err := NewSim(p)
	if err != nil {
		t.Fatal(err)
	}
	sims := map[int]*Sim{}
	for _, workers := range []int{1, 2, p.NX} {
		s, err := NewSim(p)
		if err != nil {
			t.Fatal(err)
		}
		s.SetWorkers(workers)
		sims[workers] = s
	}
	for step := 0; step < steps; step++ {
		serial.Step()
		for _, s := range sims {
			advance(t, s, 1)
		}
	}
	for workers, s := range sims {
		for c := 0; c < p.NComp(); c++ {
			for x := 0; x < p.NX; x++ {
				a, b := serial.Plane(c, x), s.Plane(c, x)
				for i := range a {
					if a[i] != b[i] {
						t.Fatalf("workers=%d diverged after %d steps at comp %d plane %d index %d: %v != %v",
							workers, steps, c, x, i, b[i], a[i])
					}
				}
			}
		}
	}
}
