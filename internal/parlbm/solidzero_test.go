package parlbm

import (
	"testing"

	"microslip/internal/checkpoint"
	"microslip/internal/field"
	"microslip/internal/lattice"
	"microslip/internal/lbm"
)

// The kernel never writes a solid cell, so a distributed run's solid
// populations must stay exactly zero after every phase — also when it
// resumes from a checkpoint whose solid cells were tampered with.
func TestRanksKeepSolidCellsZero(t *testing.T) {
	p := lbm.WaterAir(8, 10, 7)
	p.Obstacles = []lbm.Obstacle{{Y0: 4, Y1: 5, Z0: 2, Z1: 3}}
	p.InitXWave = 0.1
	mask := p.Mask()
	check := func(label string, final []*field.Dist3D) {
		t.Helper()
		for c, d := range final {
			for x := 0; x < p.NX; x++ {
				plane := d.Plane(x)
				for cell := 0; cell < p.NY*p.NZ; cell++ {
					if !mask.IsSolid(cell/p.NZ, cell%p.NZ) {
						continue
					}
					for i, v := range plane[cell*lattice.Q19 : (cell+1)*lattice.Q19] {
						if v != 0 {
							t.Fatalf("%s: comp %d plane %d cell %d population %d = %v", label, c, x, cell, i, v)
						}
					}
				}
			}
		}
	}
	for n := 1; n <= 4; n++ {
		final, _, err := RunParallel(p, 2, Options{Phases: n})
		if err != nil {
			t.Fatal(err)
		}
		check("2 ranks", final)
	}

	dir := t.TempDir()
	if _, _, err := RunParallel(p, 2, Options{Phases: 3, Checkpoint: &CheckpointSpec{Dir: dir, Interval: 2}}); err != nil {
		t.Fatal(err)
	}
	snap, err := checkpoint.LatestRun(dir)
	if err != nil {
		t.Fatal(err)
	}
	snap.Plane(0, 1)[3] = 0.5 // a wall cell of a loaded plane
	for n := snap.Phase + 1; n <= snap.Phase+3; n++ {
		final, _, err := RunParallel(p, 2, Options{Phases: n,
			Checkpoint: &CheckpointSpec{Dir: t.TempDir(), Interval: 100, Snapshot: snap}})
		if err != nil {
			t.Fatal(err)
		}
		check("resumed", final)
	}
}
