package parlbm

import (
	"errors"
	"math"
	"runtime"
	"testing"

	"microslip/internal/checkpoint"
	"microslip/internal/comm"
	"microslip/internal/lbm"
)

// TestCheckpointRoundAllocBound: a coordinated checkpoint round streams
// the AoS slab to disk from where it lies, so what it allocates — the
// container's chunk buffer, the header, plane tables, the commit
// barrier's messages — stays under 1 MiB whether the slab holds 0.16 MB
// or 9.7 MB.
func TestCheckpointRoundAllocBound(t *testing.T) {
	for _, g := range []struct{ nx, ny, nz int }{{4, 16, 8}, {16, 100, 20}} {
		p := lbm.WaterAir(g.nx, g.ny, g.nz)
		dir := t.TempDir()
		fab := comm.NewFabric(1)
		w := testWorker(p, fab.Endpoint(0), Options{Checkpoint: &CheckpointSpec{Dir: dir, Interval: 1}}, 0, g.nx)
		slab := 8 * p.NComp() * g.nx * g.ny * g.nz * 19
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
	// An f64 snapshot does not resume an f32 run: the refusal is the
	// typed precision error, distinct from corruption.
	p32 := *p
	p32.Precision = lbm.F32
	_, _, err = RunParallel(&p32, 2, Options{
		Phases:     phases,
		Checkpoint: &CheckpointSpec{Dir: t.TempDir(), Interval: 100, Snapshot: snap},
	})
	if !errors.Is(err, checkpoint.ErrPrecision) || errors.Is(err, checkpoint.ErrCorrupt) {
		t.Errorf("f32 resume from an f64 snapshot: err = %v, want ErrPrecision alone", err)
	}
}

// Densities derive from the planes, so a rank file carries none. A
// rank set that does carry them — older writers persisted a density
// plane beside every distribution plane — must resume bit-identically
// to the same planes without them: here the carried densities are NaN,
// so a resume that read them could not match.
func TestResumeIgnoresPersistedDensities(t *testing.T) {
	p := waveParams(12, 8, 5)
	const phases, every = 7, 3
	want := sequentialReference(t, p, phases)
	dir := t.TempDir()
	if _, _, err := RunParallel(p, 3, Options{
		Phases:     phases,
		Checkpoint: &CheckpointSpec{Dir: dir, Interval: every},
	}); err != nil {
		t.Fatal(err)
	}
	m, err := checkpoint.LatestCommitted(dir)
	if err != nil {
		t.Fatal(err)
	}
	bare, err := checkpoint.LoadRun(dir, m)
	if err != nil {
		t.Fatal(err)
	}
	nc := p.NComp()
	for c := 0; c < nc; c++ {
		for x := 0; x < p.NX; x++ {
			if d := bare.DensityPlane(c, x); d != nil {
				t.Fatalf("rank set persisted a density plane for comp %d plane %d", c, x)
			}
		}
	}

	denseDir := t.TempDir()
	cells := lbm.NewKernel(p).PlaneCells()
	for _, rr := range m.Ranks {
		rs, err := checkpoint.LoadRank(dir, m.Phase, rr.Rank)
		if err != nil {
			t.Fatal(err)
		}
		rs.Density = make([][][]float64, nc)
		for c := range rs.Density {
			rs.Density[c] = make([][]float64, rr.Count)
			for i := range rs.Density[c] {
				rs.Density[c][i] = make([]float64, cells)
				for j := range rs.Density[c][i] {
					rs.Density[c][i][j] = math.NaN()
				}
			}
		}
		if err := checkpoint.SaveRank(denseDir, rs); err != nil {
			t.Fatal(err)
		}
	}
	if err := checkpoint.Commit(denseDir, m); err != nil {
		t.Fatal(err)
	}
	dense, err := checkpoint.LoadRun(denseDir, m)
	if err != nil {
		t.Fatal(err)
	}
	if d := dense.DensityPlane(0, 0); len(d) != cells {
		t.Fatalf("rewritten set carries a %d-cell density plane, want %d", len(d), cells)
	}

	for name, snap := range map[string]*checkpoint.RunSnapshot{"without densities": bare, "with densities": dense} {
		got, _, err := RunParallel(p, 2, Options{
			Phases:     phases,
			Checkpoint: &CheckpointSpec{Dir: t.TempDir(), Interval: 100, Snapshot: snap},
		})
		if err != nil {
			t.Fatalf("resume %s: %v", name, err)
		}
		assertFieldsEqual(t, want, got, "resume "+name)
	}
}
