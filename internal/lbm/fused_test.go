package lbm

import (
	"math"
	"testing"
)

func planesBitEqual(t *testing.T, label string, a, b *Sim) {
	t.Helper()
	for c := 0; c < a.P.NComp(); c++ {
		for x := 0; x < a.P.NX; x++ {
			pa, pb := a.Plane(c, x), b.Plane(c, x)
			for i := range pa {
				if math.Float64bits(pa[i]) != math.Float64bits(pb[i]) {
					t.Fatalf("%s: diverged at comp %d plane %d index %d: %v != %v",
						label, c, x, i, pa[i], pb[i])
				}
			}
		}
	}
}

// The fused collide+stream path must match the serial reference bit
// for bit, for any chunk count, including domains smaller than the
// ring depth and chunk counts that do not divide NX. SetFusedChunks
// pins the sharding: the production heuristic would refuse to shard
// grids this small (or on machines with few CPUs), and the point here
// is the correctness of multi-chunk sweeps, not the scheduling choice.
func TestFusedMatchesStep(t *testing.T) {
	grids := [][3]int{{12, 10, 6}, {2, 8, 5}, {1, 6, 5}, {7, 9, 7}}
	for _, g := range grids {
		for _, chunks := range []int{1, 2, 3, 8} {
			ref, err := NewSim(WaterAir(g[0], g[1], g[2]))
			if err != nil {
				t.Fatal(err)
			}
			fp := WaterAir(g[0], g[1], g[2])
			fp.Fused = true
			fused, err := NewSim(fp)
			if err != nil {
				t.Fatal(err)
			}
			fused.SetFusedChunks(chunks)
			for step := 0; step < 5; step++ {
				ref.Step()
				fused.StepParallel()
			}
			planesBitEqual(t, "fused", ref, fused)
		}
	}
}

// Changing the chunk count mid-run rebuilds the fused pool without
// perturbing the results.
func TestFusedWorkerResize(t *testing.T) {
	ref, err := NewSim(WaterAir(10, 10, 6))
	if err != nil {
		t.Fatal(err)
	}
	fp := WaterAir(10, 10, 6)
	fp.Fused = true
	fused, err := NewSim(fp)
	if err != nil {
		t.Fatal(err)
	}
	for step, chunks := range []int{1, 4, 2, 8, 1, 3} {
		fused.SetFusedChunks(chunks)
		ref.Step()
		fused.StepParallel()
		_ = step
	}
	planesBitEqual(t, "resize", ref, fused)
}

// The steady-state step must not allocate: the per-plane component
// views, phase closures, collision scratches, band plans, and the
// boundary token mesh are all built at NewSim (or on the first step
// after a banding change), never per step. Pinned for the serial
// path, for the plane-ownership scheduler at workers=8 on both
// stepping paths (degenerate one-plane bands, the densest token
// traffic), and for multi-step runs, whose boundary-plane exchange
// must reuse the prefilled token channels rather than grow buffers.
func TestStepParallelZeroAllocs(t *testing.T) {
	p := WaterAir(8, 10, 6)
	s, err := NewSim(p)
	if err != nil {
		t.Fatal(err)
	}
	s.StepParallel() // warm scratches
	if allocs := testing.AllocsPerRun(5, s.StepParallel); allocs != 0 {
		t.Errorf("StepParallel(workers=1): %v allocs/op, want 0", allocs)
	}
	s.SetWorkers(8)
	s.SetBands(8)
	s.StepParallel() // build bands, mesh, pool
	if allocs := testing.AllocsPerRun(5, s.StepParallel); allocs != 0 {
		t.Errorf("StepParallel(bands=8): %v allocs/op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(5, func() { s.RunParallelSteps(3) }); allocs != 0 {
		t.Errorf("RunParallelSteps(3, bands=8): %v allocs/op, want 0 (boundary exchange grew)", allocs)
	}

	fp := WaterAir(8, 10, 6)
	fp.Fused = true
	f, err := NewSim(fp)
	if err != nil {
		t.Fatal(err)
	}
	f.StepParallel() // single-band fused
	if allocs := testing.AllocsPerRun(5, f.StepParallel); allocs != 0 {
		t.Errorf("fused StepParallel(workers=1): %v allocs/op, want 0", allocs)
	}
	f.SetFusedChunks(4)
	f.StepParallel() // build pool + scratches
	if allocs := testing.AllocsPerRun(5, f.StepParallel); allocs != 0 {
		t.Errorf("fused StepParallel(chunks=4): %v allocs/op, want 0", allocs)
	}
	f.SetFusedChunks(8)
	f.StepParallel() // rebuild at one-plane bands
	if allocs := testing.AllocsPerRun(5, f.StepParallel); allocs != 0 {
		t.Errorf("fused StepParallel(chunks=8): %v allocs/op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(5, func() { f.RunParallelSteps(3) }); allocs != 0 {
		t.Errorf("fused RunParallelSteps(3, chunks=8): %v allocs/op, want 0 (boundary exchange grew)", allocs)
	}

	// The SoA layout must preserve the guarantee on both stepping paths:
	// the lane views are stack-built arrays and the lane-shift stream
	// writes in place, so direction-major storage adds no per-step heap
	// traffic.
	sp := WaterAir(8, 10, 6)
	sp.Layout = SoA
	ss, err := NewSim(sp)
	if err != nil {
		t.Fatal(err)
	}
	ss.StepParallel()
	if allocs := testing.AllocsPerRun(5, ss.StepParallel); allocs != 0 {
		t.Errorf("SoA StepParallel(workers=1): %v allocs/op, want 0", allocs)
	}
	ss.SetWorkers(8)
	ss.SetBands(8)
	ss.StepParallel()
	if allocs := testing.AllocsPerRun(5, ss.StepParallel); allocs != 0 {
		t.Errorf("SoA StepParallel(bands=8): %v allocs/op, want 0", allocs)
	}

	sfp := WaterAir(8, 10, 6)
	sfp.Layout = SoA
	sfp.Fused = true
	sf, err := NewSim(sfp)
	if err != nil {
		t.Fatal(err)
	}
	sf.SetFusedChunks(4)
	sf.StepParallel()
	if allocs := testing.AllocsPerRun(5, sf.StepParallel); allocs != 0 {
		t.Errorf("SoA fused StepParallel(chunks=4): %v allocs/op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(5, func() { sf.RunParallelSteps(3) }); allocs != 0 {
		t.Errorf("SoA fused RunParallelSteps(3, chunks=4): %v allocs/op, want 0", allocs)
	}
}

// The chunking heuristic: requested workers are capped by usable CPUs
// and by a minimum chunk size, so small grids never over-shard (8-plane
// chunks once made fused workers=4 slower than workers=1), while an
// explicit SetFusedChunks bypasses the cap for correctness tests.
func TestFusedChunkHeuristic(t *testing.T) {
	p := WaterAir(32, 8, 6)
	p.Fused = true
	s, err := NewSim(p)
	if err != nil {
		t.Fatal(err)
	}
	// 32 planes / minFusedChunkPlanes=16 allows at most 2 chunks no
	// matter how many workers are requested.
	s.SetWorkers(64)
	if got := s.fusedChunkCount(); got > 2 {
		t.Errorf("32 planes, 64 workers: %d chunks, want <= 2", got)
	}
	if got := s.fusedChunkCount(); got < 1 {
		t.Errorf("chunk count %d < 1", got)
	}
	// A grid below the minimum never shards.
	p2 := WaterAir(12, 8, 6)
	p2.Fused = true
	s2, err := NewSim(p2)
	if err != nil {
		t.Fatal(err)
	}
	s2.SetWorkers(8)
	if got := s2.fusedChunkCount(); got != 1 {
		t.Errorf("12 planes, 8 workers: %d chunks, want 1", got)
	}
	// The override pins the count exactly (capped at NX).
	s2.SetFusedChunks(5)
	if got := s2.fusedChunkCount(); got != 5 {
		t.Errorf("override 5: got %d chunks", got)
	}
	s2.SetFusedChunks(100)
	if got := s2.fusedChunkCount(); got != 12 {
		t.Errorf("override 100 on 12 planes: got %d chunks, want 12", got)
	}
	s2.SetFusedChunks(0)
	if got := s2.fusedChunkCount(); got != 1 {
		t.Errorf("override cleared: got %d chunks, want 1", got)
	}
}
