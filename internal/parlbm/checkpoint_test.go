package parlbm

import (
	"runtime"
	"testing"

	"microslip/internal/checkpoint"
	"microslip/internal/comm"
	"microslip/internal/lbm"
)

// TestCheckpointRoundAllocBound: a coordinated checkpoint round streams
// the AoS slab to disk from where it lies, so what it allocates — the
// container's chunk buffer, the header, plane tables, the commit
// barrier's messages — stays under 1 MiB whether the slab holds 0.6 MB
// or 39 MB.
func TestCheckpointRoundAllocBound(t *testing.T) {
	for _, g := range []struct{ nx, ny, nz int }{{4, 16, 8}, {16, 100, 20}} {
		p := lbm.WaterAir(g.nx, g.ny, g.nz)
		dir := t.TempDir()
		fab := comm.NewFabric(1)
		w := testWorker(p, fab.Endpoint(0), Options{Checkpoint: &CheckpointSpec{Dir: dir, Interval: 1}}, 0, g.nx)
		slab := 8 * p.NComp() * g.nx * g.ny * g.nz * (19 + 1)
		round := func(phase int) uint64 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if err := w.checkpointPhase(phase); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			return after.TotalAlloc - before.TotalAlloc
		}
		round(1) // gob compiles its encoder for the header types once per process
		if got := round(2); got >= 1<<20 {
			t.Errorf("%dx%dx%d: checkpoint round of a %d-byte slab allocated %d bytes, want < 1 MiB", g.nx, g.ny, g.nz, slab, got)
		}
		fab.Close()

		snap, err := checkpoint.LatestRun(dir)
		if err != nil {
			t.Fatal(err)
		}
		if snap.Phase != 2 || snap.NX != g.nx {
			t.Fatalf("restored phase %d of %d planes, want 2 of %d", snap.Phase, snap.NX, g.nx)
		}
		for c := range w.f {
			for gx := 0; gx < g.nx; gx++ {
				for i, v := range w.f[c].Plane(gx) {
					if snap.Plane(c, gx)[i] != v {
						t.Fatalf("comp %d plane %d value %d: restored %v, slab holds %v", c, gx, i, snap.Plane(c, gx)[i], v)
					}
				}
			}
		}
	}
}

// TestCheckpointedRunStaysBitIdentical: coordinated checkpointing on a
// healthy run must not perturb the physics, and must leave a committed
// set a later run can resume from.
func TestCheckpointedRunStaysBitIdentical(t *testing.T) {
	p := lbm.WaterAir(8, 6, 4)
	const phases, ranks = 9, 3
	want := sequentialReference(t, p, phases)
	dir := t.TempDir()

	got, results, err := RunParallel(p, ranks, Options{
		Phases:     phases,
		Checkpoint: &CheckpointSpec{Dir: dir, Interval: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	assertFieldsEqual(t, want, got, "checkpointed run")
	for _, r := range results {
		if r.Checkpoints != 2 { // after phases 3 and 6; phase 9 is the end
			t.Errorf("rank %d completed %d checkpoints, want 2", r.Rank, r.Checkpoints)
		}
	}
	m, err := checkpoint.LatestCommitted(dir)
	if err != nil {
		t.Fatal(err)
	}
	if m.Phase != 6 || m.NX != p.NX {
		t.Fatalf("latest committed phase %d nx %d, want 6/%d", m.Phase, m.NX, p.NX)
	}
	if m.Params == nil || m.Params.NX != p.NX {
		t.Fatalf("manifest params missing or wrong: %+v", m.Params)
	}
}

// TestResumeFromSnapshotBitIdentical: a run restarted from a committed
// coordinated checkpoint — including on a DIFFERENT group size — must
// finish bit-identical to the straight-through run.
func TestResumeFromSnapshotBitIdentical(t *testing.T) {
	p := lbm.WaterAir(8, 6, 4)
	const phases = 9
	want := sequentialReference(t, p, phases)
	dir := t.TempDir()

	if _, _, err := RunParallel(p, 3, Options{
		Phases:     phases,
		Checkpoint: &CheckpointSpec{Dir: dir, Interval: 3},
	}); err != nil {
		t.Fatal(err)
	}
	snap, err := checkpoint.LatestRun(dir)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Phase != 6 {
		t.Fatalf("snapshot phase %d, want 6", snap.Phase)
	}
	for _, ranks := range []int{2, 3, 4} {
		got, results, err := RunParallel(p, ranks, Options{
			Phases:     phases,
			Checkpoint: &CheckpointSpec{Dir: t.TempDir(), Interval: 100, Snapshot: snap},
		})
		if err != nil {
			t.Fatalf("resume on %d ranks: %v", ranks, err)
		}
		assertFieldsEqual(t, want, got, "resumed run")
		for _, r := range results {
			if r.StartPhase != 6 {
				t.Errorf("%d ranks: rank %d started at phase %d, want 6", ranks, r.Rank, r.StartPhase)
			}
		}
	}
}

// A rank file persists, beside each plane, the densities the phase that
// produced it read — Densities of the plane one phase earlier — so a
// committed set describes the same quantities whatever solver wrote it.
func TestCheckpointDensitiesAreLastSweepInputs(t *testing.T) {
	p := waveParams(12, 8, 5)
	const phases, every = 7, 3
	dir := t.TempDir()
	if _, _, err := RunParallel(p, 3, Options{
		Phases:     phases,
		Checkpoint: &CheckpointSpec{Dir: dir, Interval: every},
	}); err != nil {
		t.Fatal(err)
	}
	snap, err := checkpoint.LatestRun(dir)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := lbm.NewSim(p)
	if err != nil {
		t.Fatal(err)
	}
	ref.Run(snap.Phase - 1)
	k := lbm.NewKernel(p)
	nc := p.NComp()
	f, n := make([][]float64, nc), make([][]float64, nc)
	for x := 0; x < p.NX; x++ {
		for c := 0; c < nc; c++ {
			f[c], n[c] = ref.Plane(c, x), make([]float64, k.PlaneCells())
		}
		k.Densities(f, n)
		for c := 0; c < nc; c++ {
			got := snap.DensityPlane(c, x)
			for i, v := range n[c] {
				if got[i] != v {
					t.Fatalf("phase %d comp %d plane %d cell %d: density %v, want %v", snap.Phase, c, x, i, got[i], v)
				}
			}
		}
	}
}
