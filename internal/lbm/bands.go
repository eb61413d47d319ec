package lbm

// Intra-node parallelism: bands are in-process slabs.
//
// Each band owns a fixed contiguous run of x-planes for the lifetime of
// the banding and steps them with a SlabSweep, the same slab step a
// distributed rank of package parlbm runs: pack a frame for each
// neighbour, take the neighbours' frames as ghost planes, sweep the
// owned planes in place. A band never reads another band's planes, only
// its frames, so sweeping in place is safe and one lattice is all the
// solver holds.

import (
	"runtime"
	"runtime/debug"

	"microslip/internal/num"
	"microslip/internal/runctl"
)

// bandCountFor returns the number of bands planBands produces for a
// request of nBands over nx planes: at least one, and few enough that
// every band of a multi-band plan keeps MinFramePlanes planes.
func bandCountFor(nx, nBands int) int {
	if limit := nx / MinFramePlanes; nBands > limit {
		nBands = limit
	}
	if nBands < 1 {
		nBands = 1
	}
	return nBands
}

// planBands partitions nx planes into bandCountFor(nx, nBands)
// contiguous bands [lo, hi) whose sizes differ by at most one plane.
func planBands(nx, nBands int) [][2]int {
	n := bandCountFor(nx, nBands)
	bands := make([][2]int, n)
	for w := range bands {
		bands[w] = [2]int{w * nx / n, (w + 1) * nx / n}
	}
	return bands
}

// bandSet is the built state of one banding: a slab step per band and,
// for more than one band, the persistent worker pool with its two
// cached wakes. abort lives with the build: the first band to recover
// a panic trips it, and a trip poisons the whole banding.
type bandSet[T num.Float] struct {
	slabs      []*SlabSweepOf[T]
	pool       *stepPool
	abort      *runctl.Abort
	pack, take func(int)
}

// stop terminates the pool workers, if any.
func (b *bandSet[T]) stop() {
	if b != nil && b.pool != nil {
		b.pool.stop()
	}
}

// fusedChunkCount returns the number of bands for the configured
// workers: capped by the scheduler's usable CPUs (extra bands cannot run
// anywhere and only add redundant boundary work) and by NX/minBandPlanes
// so every band amortizes its redundancy tax, floor 1. SetFusedChunks
// overrides the heuristic, clamped to NX/MinFramePlanes.
func (s *SimOf[T]) fusedChunkCount() int {
	if s.fusedChunks > 0 {
		return bandCountFor(s.P.NX, s.fusedChunks)
	}
	return usableBands(s.workers, s.P.NX, runtime.GOMAXPROCS(0))
}

// ensureBands (re)builds the slab steps and pool for w bands; it is a
// no-op once built until SetWorkers or SetFusedChunks changes the
// banding.
func (s *SimOf[T]) ensureBands(w int) {
	if s.bands != nil && len(s.bands.slabs) == bandCountFor(s.P.NX, w) {
		return
	}
	s.bands.stop()
	plan := planBands(s.P.NX, w)
	bs := &bandSet[T]{slabs: make([]*SlabSweepOf[T], len(plan))}
	for i, b := range plan {
		lo := b[0]
		bs.slabs[i] = s.K.NewSlabSweep()
		bs.slabs[i].Bind(b[1]-lo, func(x, c int) []T { return s.f[c][lo+x] })
	}
	if len(plan) > 1 {
		bs.pool = newStepPool(len(plan))
		bs.abort = runctl.NewAbort()
		bs.pack = func(i int) {
			defer bs.recoverBand(i)
			if hook := s.bandHook; hook != nil {
				hook(i, s.step)
			}
			bs.slabs[i].Pack()
		}
		bs.take = func(i int) {
			defer bs.recoverBand(i)
			bs.sweep(i)
		}
	}
	s.bands = bs
}

// recoverBand turns a panic in band i's wake into the banding's abort
// cause (the first wins); the wake then returns normally, so the pool
// rendezvous completes.
func (b *bandSet[T]) recoverBand(i int) {
	if r := recover(); r != nil {
		b.abort.Trip(&runctl.PanicError{Rank: -1, Band: i, Value: r, Stack: debug.Stack()})
	}
}

// sweep advances band i one step in place, its left neighbour's
// rightward frame and its right neighbour's leftward frame as ghosts (a
// lone band is its own neighbour on both sides, so its frames wrap the
// periodic x boundary exactly as a one-rank parlbm slab's do). The
// frames are in memory and well formed, so Ghost cannot fail.
func (b *bandSet[T]) sweep(i int) {
	n := len(b.slabs)
	sl := b.slabs[i]
	_ = sl.Ghost(0, b.slabs[(i-1+n)%n].frame[1])
	_ = sl.Ghost(1, b.slabs[(i+1)%n].frame[0])
	sl.Sweep()
}

// runParallelErr advances n steps with the configured intra-node
// parallelism and returns a worker panic as a *runctl.PanicError. A
// lone band steps inline. A multi-band step is two wakes of the pool:
// every band packs its frames, then every band takes its neighbours'
// frames and sweeps. The rendezvous between the wakes is the only
// synchronization: no band repacks a frame while a peer still reads
// it, so one frame per side suffices and no band ever waits on a peer.
// A worker panic surfaces after every worker has unwound, and the
// banding is poisoned for rebuild (the half-swept lattice behind it is
// not trustworthy).
func (s *SimOf[T]) runParallelErr(n int) error {
	s.ensureBands(s.fusedChunkCount())
	bs := s.bands
	for ; n > 0; n-- {
		if bs.pool == nil {
			if hook := s.bandHook; hook != nil {
				hook(0, s.step)
			}
			bs.slabs[0].Pack()
			bs.sweep(0)
		} else {
			bs.pool.run(bs.pack)
			if bs.abort.Err() == nil {
				bs.pool.run(bs.take)
			}
			if err := bs.abort.Err(); err != nil {
				bs.stop()
				s.bands = nil
				return err
			}
		}
		s.step++
	}
	return nil
}

// minBandPlanes is the smallest band worth a dedicated worker. Below
// it the per-step synchronization and the redundant boundary
// collisions outweigh the parallel gain and over-sharded small grids
// run slower than one sweep (measured on a 32x48x16 grid at workers=4).
// Grids under 2*minBandPlanes therefore take the single-band path no
// matter how many workers are requested; SetFusedChunks bypasses the
// floor for correctness tests.
const minBandPlanes = 16

// usableBands caps a requested worker count by the scheduler's usable
// CPUs (extra bands cannot run anywhere and only add synchronization)
// and by the minBandPlanes floor, with a hard floor of 1.
func usableBands(requested, nx, procs int) int {
	w := requested
	if w > procs {
		w = procs
	}
	if byPlanes := nx / minBandPlanes; w > byPlanes {
		w = byPlanes
	}
	if w < 1 {
		w = 1
	}
	return w
}
