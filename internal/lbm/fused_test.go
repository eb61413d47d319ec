package lbm

import (
	"fmt"
	"math"
	"runtime"
	"testing"
	"unsafe"

	"microslip/internal/num"
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

// The in-place sweep must match the serial reference bit for bit, for
// any band count, including domains smaller than the ring depth (a lone
// band's frames then wrap onto its own planes) and band counts that do
// not divide NX or exceed NX/2 (clamped to two-plane bands).
// SetFusedChunks pins the banding: the production heuristic would
// refuse to shard grids this small (or on machines with few CPUs), and
// the point here is the correctness of multi-band sweeps, not the
// scheduling choice.
func TestFusedMatchesStep(t *testing.T) {
	grids := [][3]int{{12, 10, 6}, {2, 8, 5}, {1, 6, 5}, {3, 6, 5}, {7, 9, 7}}
	for _, g := range grids {
		for _, chunks := range []int{1, 2, 3, 8} {
			ref, err := NewSim(WaterAir(g[0], g[1], g[2]))
			if err != nil {
				t.Fatal(err)
			}
			fused, err := NewSim(WaterAir(g[0], g[1], g[2]))
			if err != nil {
				t.Fatal(err)
			}
			fused.SetFusedChunks(chunks)
			for step := 0; step < 5; step++ {
				ref.Step()
				advance(t, fused, 1)
			}
			planesBitEqual(t, fmt.Sprintf("grid %v chunks %d", g, chunks), ref, fused)
		}
	}
}

// Changing the band count mid-run rebuilds the bands without perturbing
// the results.
func TestFusedWorkerResize(t *testing.T) {
	ref, err := NewSim(WaterAir(10, 10, 6))
	if err != nil {
		t.Fatal(err)
	}
	fused, err := NewSim(WaterAir(10, 10, 6))
	if err != nil {
		t.Fatal(err)
	}
	for _, chunks := range []int{1, 4, 2, 8, 1, 3} {
		fused.SetFusedChunks(chunks)
		ref.Step()
		advance(t, fused, 1)
	}
	planesBitEqual(t, "resize", ref, fused)
}

// The steady-state step must not allocate: the plane windows, frames,
// sweep rings, band plans and the worker pool are all built on the
// first step after a banding change, never per step. Pinned for every
// banding (one band, and 2, 3 and 8 requested, which the 8-plane grid
// clamps to two-plane bands) at both precisions, for supervised steps
// and for multi-step runs, whose frame exchange must reuse each band's
// one frame per side rather than grow buffers.
func TestStepParallelZeroAllocs(t *testing.T) {
	for _, prec := range []Precision{F64, F32} {
		for _, bands := range []int{1, 2, 3, 8} {
			p := WaterAir(8, 10, 6)
			p.Precision = prec
			s, err := NewSolver(p)
			if err != nil {
				t.Fatal(err)
			}
			s.SetWorkers(bands)
			s.(interface{ SetFusedChunks(int) }).SetFusedChunks(bands)
			advance(t, s, 1) // build the bands and pool
			label := fmt.Sprintf("prec=%v/bands=%d", prec, bands)
			if allocs := testing.AllocsPerRun(5, func() { s.RunSupervised(1, nil) }); allocs != 0 {
				t.Errorf("%s: RunSupervised(1) %v allocs/op, want 0", label, allocs)
			}
			wake := s.(interface{ runParallelErr(int) error })
			if allocs := testing.AllocsPerRun(5, func() { wake.runParallelErr(3) }); allocs != 0 {
				t.Errorf("%s: 3-step wake %v allocs/op, want 0 (frame exchange grew)", label, allocs)
			}
		}
	}
}

// The chunking heuristic: requested workers are capped by usable CPUs
// and by a minimum band size, so small grids never over-shard (8-plane
// bands once made workers=4 slower than workers=1), while an explicit
// SetFusedChunks bypasses the cap for correctness tests down to the
// two-plane frame floor.
func TestFusedChunkHeuristic(t *testing.T) {
	s, err := NewSim(WaterAir(32, 8, 6))
	if err != nil {
		t.Fatal(err)
	}
	// 32 planes / minBandPlanes=16 allows at most 2 bands no matter how
	// many workers are requested.
	s.SetWorkers(64)
	if got := s.fusedChunkCount(); got > 2 {
		t.Errorf("32 planes, 64 workers: %d bands, want <= 2", got)
	}
	if got := s.fusedChunkCount(); got < 1 {
		t.Errorf("band count %d < 1", got)
	}
	// A grid below the minimum never shards.
	s2, err := NewSim(WaterAir(12, 8, 6))
	if err != nil {
		t.Fatal(err)
	}
	s2.SetWorkers(8)
	if got := s2.fusedChunkCount(); got != 1 {
		t.Errorf("12 planes, 8 workers: %d bands, want 1", got)
	}
	// The override pins the count exactly, clamped to NX/2.
	s2.SetFusedChunks(5)
	if got := s2.fusedChunkCount(); got != 5 {
		t.Errorf("override 5: got %d bands", got)
	}
	s2.SetFusedChunks(100)
	if got := s2.fusedChunkCount(); got != 6 {
		t.Errorf("override 100 on 12 planes: got %d bands, want 6", got)
	}
	s2.SetFusedChunks(0)
	if got := s2.fusedChunkCount(); got != 1 {
		t.Errorf("override cleared: got %d bands, want 1", got)
	}
}

// heldBytes is what s is allowed to hold: one distribution lattice,
// plus each band's sweep rings and frames.
func heldBytes[T num.Float](s *SimOf[T]) int {
	n := s.P.NComp() * s.P.NX * s.K.PlaneLen()
	for _, sl := range s.bands.slabs {
		for slot := 0; slot < 3; slot++ {
			for c := range sl.fs.n[slot] {
				n += len(sl.fs.n[slot][c]) + len(sl.fs.post[slot][c])
			}
		}
		for _, fr := range sl.frame {
			n += len(fr)
		}
	}
	var zero T
	return n * int(unsafe.Sizeof(zero))
}

// heapAfterGC returns the live heap after a full collection.
func heapAfterGC() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// checkHeld fails unless the live heap grew by at most 1.05x held.
func checkHeld(t *testing.T, grew int64, held int) {
	t.Helper()
	if limit := 1.05 * float64(held); float64(grew) > limit {
		t.Errorf("live heap grew %d bytes, limit %.0f (1.05 x %d for one lattice plus rings and frames)",
			grew, limit, held)
	}
}

// runHeld builds a solver at precision T on bands bands, steps it, and
// checks what stays live against heldBytes.
func runHeld[T num.Float](t *testing.T, p *Params, bands int) {
	before := heapAfterGC()
	s, err := NewSimOf[T](p)
	if err != nil {
		t.Fatal(err)
	}
	s.SetFusedChunks(bands)
	advance(t, s, 3)
	checkHeld(t, heapAfterGC()-before, heldBytes(s))
	runtime.KeepAlive(s)
}

// A solver holds one distribution lattice: everything it keeps live
// once stepping has begun — the lattice, the bands' rings and frames,
// kernel tables, scratch — fits in 1.05x the lattice plus the rings and
// frames. A second lattice (the post-collision copy the solver used to
// alternate with) would double the bill. Checked for both precisions,
// one and two bands, and a refined solver, whose three blocks are each
// one lattice.
func TestSolverHoldsOneLattice(t *testing.T) {
	const nx, ny, nz = 64, 48, 16
	for _, bands := range []int{1, 2} {
		t.Run(fmt.Sprintf("f64/bands=%d", bands), func(t *testing.T) {
			runHeld[float64](t, WaterAir(nx, ny, nz), bands)
		})
		t.Run(fmt.Sprintf("f32/bands=%d", bands), func(t *testing.T) {
			p := WaterAir(nx, ny, nz)
			p.Precision = F32
			runHeld[float32](t, p, bands)
		})
	}
	t.Run("refined", func(t *testing.T) {
		before := heapAfterGC()
		rs, err := NewRefined(WaterAir(nx, ny, nz), RefineSpec{Levels: 2, WallLayers: 4})
		if err != nil {
			t.Fatal(err)
		}
		advance(t, rs, 3)
		grew := heapAfterGC() - before
		r := rs.(*refinedOf[float64])
		checkHeld(t, grew, heldBytes(r.bot)+heldBytes(r.top)+heldBytes(r.coarse))
		runtime.KeepAlive(rs)
	})
}

// Bands trade frames through memory one goroutine writes and another
// reads; this run gives the race detector every banding from two to
// eight bands (two-plane bands at eight) over 60 steps, in multi-step
// runs of odd and even length so each band's one frame per side is
// repacked across run boundaries, and holds each to the serial
// reference.
func TestBandFrameExchangeLongRun(t *testing.T) {
	const nx, steps = 16, 60
	ref, err := NewSim(WaterAir(nx, 6, 5))
	if err != nil {
		t.Fatal(err)
	}
	ref.Run(steps)
	for bands := 2; bands <= 8; bands++ {
		s, err := NewSim(WaterAir(nx, 6, 5))
		if err != nil {
			t.Fatal(err)
		}
		s.SetWorkers(bands)
		s.SetFusedChunks(bands)
		for _, n := range []int{7, 13, 40} {
			advanceWake(t, s, n)
		}
		planesBitEqual(t, fmt.Sprintf("bands=%d", bands), ref, s)
	}
}
