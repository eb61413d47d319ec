package lbm

import (
	"runtime"
	"testing"
)

// Intra-node parallel stepping must match serial stepping bit for bit.
// The band count is pinned so the bands actually shard a 12-plane grid
// (the heuristic would rightly refuse on small grids or few CPUs);
// bands=8 and bands=12 both clamp to 6 two-plane bands, the smallest a
// frame allows.
func TestStepParallelMatchesStep(t *testing.T) {
	for _, bands := range []int{1, 2, 3, 8, 12} {
		p := WaterAir(12, 10, 6)
		serial, err := NewSim(p)
		if err != nil {
			t.Fatal(err)
		}
		par, err := NewSim(p)
		if err != nil {
			t.Fatal(err)
		}
		par.SetWorkers(bands)
		par.SetFusedChunks(bands)
		for step := 0; step < 6; step++ {
			serial.Step()
			advance(t, par, 1)
		}
		for c := 0; c < 2; c++ {
			for x := 0; x < p.NX; x++ {
				a, b := serial.Plane(c, x), par.Plane(c, x)
				for i := range a {
					if a[i] != b[i] {
						t.Fatalf("bands=%d: diverged at comp %d plane %d index %d: %v != %v",
							bands, c, x, i, a[i], b[i])
					}
				}
			}
		}
	}
}

// A multi-step run of runParallelErr (the path the refined fine blocks
// run their two sub-steps on) must be bit-identical to the same number
// of serial steps, for odd and even lengths and across a mid-run
// band-count change. Params.Fused is ignored: both settings run the one
// in-place sweep.
func TestRunParallelStepsMatchesStepwise(t *testing.T) {
	for _, fused := range []bool{false, true} {
		p := WaterAir(12, 10, 6)
		p.Fused = fused
		serial, err := NewSim(WaterAir(12, 10, 6))
		if err != nil {
			t.Fatal(err)
		}
		batch, err := NewSim(p)
		if err != nil {
			t.Fatal(err)
		}
		batch.SetFusedChunks(4)
		// 3 (odd) + 4 (even) steps batched, then a resharding to
		// two-plane bands, then 5 more.
		advanceWake(t, batch, 3)
		advanceWake(t, batch, 4)
		batch.SetFusedChunks(12)
		advanceWake(t, batch, 5)
		serial.Run(12)
		if batch.StepCount() != 12 {
			t.Fatalf("fused=%v: step count %d, want 12", fused, batch.StepCount())
		}
		for c := 0; c < 2; c++ {
			for x := 0; x < p.NX; x++ {
				a, b := serial.Plane(c, x), batch.Plane(c, x)
				for i := range a {
					if a[i] != b[i] {
						t.Fatalf("fused=%v: diverged at comp %d plane %d index %d: %v != %v",
							fused, c, x, i, a[i], b[i])
					}
				}
			}
		}
	}
}

// SetWorkers floors the worker count at one, and a machine-sized request
// (what the CLIs and experiments ask for) is capped to a usable banding.
func TestWorkersConfiguration(t *testing.T) {
	p := WaterAir(8, 8, 6)
	s, err := NewSim(p)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.fusedChunkCount(); got != 1 {
		t.Errorf("default band count %d, want 1", got)
	}
	s.SetWorkers(0)
	if s.workers != 1 {
		t.Errorf("SetWorkers(0) gave %d", s.workers)
	}
	s.SetWorkers(runtime.GOMAXPROCS(0))
	if w := s.fusedChunkCount(); w < 1 || w > runtime.GOMAXPROCS(0) || w > p.NX {
		t.Errorf("GOMAXPROCS workers gave %d bands (GOMAXPROCS %d, NX %d)", w, runtime.GOMAXPROCS(0), p.NX)
	}
	advance(t, s, 3)
	if s.StepCount() != 3 {
		t.Errorf("step count %d after RunSupervised(3)", s.StepCount())
	}
}
