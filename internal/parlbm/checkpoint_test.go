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
