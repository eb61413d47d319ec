package lbm

import "microslip/internal/runctl"

// SetWorkers sets the number of bands used to advance the planes within
// a step; n <= 1 means one band. Every banding runs the same fused
// sweep behind the same frames, so any worker count produces results
// identical to the serial Step bit for bit. This is intra-node
// parallelism, the complement of the inter-node decomposition in
// package parlbm. The effective band count is capped by usable CPUs and
// the minBandPlanes floor (see usableBands); SetFusedChunks pins it for
// tests.
func (s *SimOf[T]) SetWorkers(n int) {
	if n < 1 {
		n = 1
	}
	s.workers = n
}

// SetFusedChunks pins the band count to n, bypassing the usable-CPU cap
// and the minimum-planes heuristic but not the MinFramePlanes floor (n
// is clamped to NX/2); n <= 0 restores the heuristic. Correctness tests
// use it to force multi-band sweeps that the heuristic would (rightly)
// refuse on small grids or few CPUs.
func (s *SimOf[T]) SetFusedChunks(n int) {
	if n < 0 {
		n = 0
	}
	s.fusedChunks = n
}

// SetBandHook installs a per-step observation hook: the bands call
// hook(band, step) once per band at the top of every step, before
// packing (band 0 on the single-band path), concurrently from the band
// workers. Chaos tests use it to inject panics and stalls into compute
// workers and to trigger cancellation at exact steps; a nil hook (the
// default) costs one predictable branch per band-step.
func (s *SimOf[T]) SetBandHook(hook func(band, step int)) {
	s.bandHook = hook
}

// RunSupervised advances up to n steps under a supervisor, checking for
// cancellation, wall-clock expiry, or a hard abort at every step
// boundary. It returns the number of steps actually completed and the
// stop cause: a soft cause (wrapping runctl.ErrCanceled or
// runctl.ErrWallLimit) leaves the simulation at a consistent step
// boundary — checkpoint-and-resume reproduces the uninterrupted run bit
// for bit — while a *runctl.PanicError means a worker panicked and the
// in-memory state is not trustworthy. A nil supervisor never stops the
// run, but a worker panic comes back as the error all the same. Each
// step is runParallelErr(1), so the supervisor is checked between
// steps.
func (s *SimOf[T]) RunSupervised(n int, sup *runctl.Supervisor) (int, error) {
	for done := 0; done < n; done++ {
		if err := sup.Err(); err != nil {
			return done, err
		}
		if err := s.runParallelErr(1); err != nil {
			sup.Trip(err)
			return done, err
		}
	}
	return n, nil
}
