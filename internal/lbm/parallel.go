package lbm

import (
	"runtime"

	"microslip/internal/runctl"
)

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

// AutoWorkers sets the worker count to the number of CPUs, capped by
// the plane count.
func (s *SimOf[T]) AutoWorkers() {
	n := runtime.GOMAXPROCS(0)
	if n > s.P.NX {
		n = s.P.NX
	}
	s.SetWorkers(n)
}

// Workers returns the configured worker count.
func (s *SimOf[T]) Workers() int {
	if s.workers < 1 {
		return 1
	}
	return s.workers
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

// StepParallel advances one step with the configured intra-node
// parallelism: the fused sweep, in place, over every band. Sim keeps
// Step itself as the strictly serial three-pass reference so the
// physics stays trivially auditable; drivers that want speed and one
// lattice call this instead. Both are bit-equal.
func (s *SimOf[T]) StepParallel() {
	s.RunParallelSteps(1)
}

// RunParallelSteps advances n steps with the configured intra-node
// parallelism. Multi-step runs hand the whole loop to the persistent
// band workers: the caller rendezvouses with the pool once per run
// instead of once per step, and between steps the bands synchronize
// only with their neighbours through their frames.
func (s *SimOf[T]) RunParallelSteps(n int) {
	if err := s.runParallelErr(n); err != nil {
		// A band worker panicked: every worker has already unwound (the
		// abort flag drained the token mesh) and the banding has been
		// poisoned for rebuild. Re-panic with the typed cause so the
		// unsupervised interface keeps panic semantics; supervised loops
		// use RunSupervised and get it as an error instead.
		panic(err)
	}
}

// SetBandHook installs a per-step observation hook: the bands call
// hook(band, step) once per band at the top of every step (band 0 on
// the single-band path), concurrently from the band workers. Chaos
// tests use it to inject panics and stalls into compute workers and to
// trigger cancellation at exact steps; a nil hook (the default) costs
// one predictable branch per band-step.
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
// in-memory state is not trustworthy. A nil supervisor degrades to
// RunParallelSteps with error-valued panics.
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
