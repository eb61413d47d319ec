package lbm

import (
	"runtime"
	"runtime/debug"
	"sync"

	"microslip/internal/num"
	"microslip/internal/runctl"
)

// The fused collide+stream stepping path. The reference step makes
// three full passes over the distribution arrays (densities, collide,
// stream), each of which streams every plane through the cache. The
// fused path makes a single rolling sweep (SweepFused): as the sweep
// front advances one plane, it computes that plane's densities,
// collides the plane behind the front, and streams the plane behind
// that — the three kernels consume each plane while it is still
// cache-hot. Densities and post-collision values live in rings of three
// plane sets (the dependency depth of the D3Q19 stencil along x), so
// the step touches the full-size destination array only once, as the
// stream destination, and allocates nothing in the steady state.
//
// With multiple workers each worker persistently owns a contiguous
// band of planes and recomputes the densities and post-collision
// values of the band-boundary planes redundantly into its private
// rings (identical arithmetic on read-only inputs, hence identical
// bits — the same redundant ghost collision every distributed rank
// runs on its neighbours' edge planes), so bands never share written
// state and the result is bit-equal to Step for any band count. Steps
// synchronize through the boundary token mesh only: a band starts its
// next sweep as soon as the owners of the planes within its stencil
// reach (two on each side) have finished the previous one.

// FusedScratchOf is the state one fused sweep carries: its rolling
// rings plus the collision scratch. A band or rank owns one for its
// lifetime; it must not be shared between concurrent sweeps.
type FusedScratchOf[T num.Float] struct {
	sc   *ScratchOf[T]
	n    [3][][]T    // n[slot][c]: density plane ring
	post [3][][]T    // post[slot][c]: post-collision plane ring
	mom  [3][][3][]T // mom[slot][c][a]: SoA momentum lane ring (nil for AoS)
}

// FusedScratch is the double-precision sweep state.
type FusedScratch = FusedScratchOf[float64]

// NewFusedScratch allocates the sweep state for cell-major (AoS) planes.
func (k *KernelOf[T]) NewFusedScratch() *FusedScratchOf[T] { return newFusedScratch(k, false) }

func newFusedScratch[T num.Float](k *KernelOf[T], soa bool) *FusedScratchOf[T] {
	fs := &FusedScratchOf[T]{sc: k.NewScratch()}
	for s := 0; s < 3; s++ {
		fs.n[s] = make([][]T, k.NComp)
		fs.post[s] = make([][]T, k.NComp)
		for c := 0; c < k.NComp; c++ {
			fs.n[s][c] = make([]T, k.PlaneCells())
			fs.post[s][c] = make([]T, k.PlaneLen())
		}
		if soa {
			// The SoA sweep computes each plane's momentum lanes
			// together with its densities (one read of the
			// distribution lanes); the ring carries them from the
			// density front back to the collision, exactly like n.
			fs.mom[s] = make([][3][]T, k.NComp)
			for c := 0; c < k.NComp; c++ {
				for a := 0; a < 3; a++ {
					fs.mom[s][c][a] = make([]T, k.PlaneCells())
				}
			}
		}
	}
	return fs
}

// slot3 maps a sweep index (which may run past the domain on either
// side) to its ring slot. Keyed by the raw index, not the wrapped
// plane, so the three slots of any stencil window are always distinct
// even when NX < 3.
func slot3(x int) int { return ((x % 3) + 3) % 3 }

// wrapX maps a sweep index to its periodic plane index.
func wrapX(x, nx int) int {
	x %= nx
	if x < 0 {
		x += nx
	}
	return x
}

// SweepFused runs one fused step over the planes [lo, hi) of a view
// window: plane x of the window is src[wrapX(x, len(src))], one entry
// per component. The sweep reads planes lo-2 .. hi+1 and collides lo-1
// and hi redundantly — they belong to a neighbouring band or rank — then
// writes streamed populations into dst planes lo .. hi-1 only.
//
// farL and farR, when non-nil, are the densities of planes lo-2 and
// hi+1 and replace computing them from src: a rank holds its
// neighbours' edge planes but not the planes behind them. dens, when
// non-nil, receives a copy of the densities of planes lo .. hi-1
// (indexed like src). dst may be src itself when the window does not
// wrap onto the swept planes (lo-2 .. hi+1 are distinct entries): every
// plane is read for the last time before it is overwritten. A
// FusedScratch built for SoA planes (the sequential SoA path) selects
// the direction-major kernels.
func (k *KernelOf[T]) SweepFused(fs *FusedScratchOf[T], src, dst [][][]T, lo, hi int, farL, farR [][]T, dens [][][]T) {
	nx := len(src)
	soa := fs.mom[0] != nil
	// Density-front advance: the SoA sweep also harvests each plane's
	// momentum lanes from the same lane walk, so the collision below
	// can skip its own momentum pass (and with it a second full read
	// of the distribution lanes).
	density := func(x int) {
		n := fs.n[slot3(x)]
		switch {
		case x == lo-2 && farL != nil:
			copyPlanes(n, farL)
		case x == hi+1 && farR != nil:
			copyPlanes(n, farR)
		case soa:
			k.DensitiesMomentsSoA(src[wrapX(x, nx)], n, fs.mom[slot3(x)])
		default:
			k.Densities(src[wrapX(x, nx)], n)
		}
		if dens != nil && x >= lo && x < hi {
			copyPlanes(dens[wrapX(x, nx)], n)
		}
	}
	// Prime the density ring behind the sweep front.
	density(lo - 2)
	density(lo - 1)
	for x := lo - 1; x <= hi; x++ {
		// Advance the front: densities one plane ahead, so the stencil
		// window n(x-1), n(x), n(x+1) is complete for the collision.
		density(x + 1)
		if soa {
			k.collideScratchSoA(fs.sc, fs.n[slot3(x-1)], fs.n[slot3(x)], fs.n[slot3(x+1)],
				src[wrapX(x, nx)], fs.post[slot3(x)], fs.mom[slot3(x)])
		} else {
			k.CollideScratch(fs.sc, fs.n[slot3(x-1)], fs.n[slot3(x)], fs.n[slot3(x+1)],
				src[wrapX(x, nx)], fs.post[slot3(x)])
		}
		// Stream two planes behind the front, where post(x-2), post(x-1)
		// and post(x) are all available. x-1 stays inside [lo, hi):
		// the boundary collisions at lo-1 and hi are the redundant ones.
		if x < lo+1 {
			continue
		}
		if soa {
			k.StreamSoA(fs.post[slot3(x-2)], fs.post[slot3(x-1)], fs.post[slot3(x)], dst[wrapX(x-1, nx)])
		} else {
			k.Stream(fs.post[slot3(x-2)], fs.post[slot3(x-1)], fs.post[slot3(x)], dst[wrapX(x-1, nx)])
		}
	}
}

// copyPlanes copies every component plane of src into dst.
func copyPlanes[T num.Float](dst, src [][]T) {
	for c := range src {
		copy(dst[c], src[c])
	}
}

// stepPool is the persistent goroutine pool of the ownership
// schedulers: spawning goroutines every run would allocate, parked
// workers woken over channels do not. Workers reference only their
// channels — never the Sim or the pool — so when the owning Sim
// becomes unreachable the pool's finalizer closes quit and the workers
// exit instead of leaking.
type stepPool struct {
	start []chan func(int)
	done  chan struct{}
	quit  chan struct{}
	once  sync.Once
}

func newStepPool(n int) *stepPool {
	p := &stepPool{
		start: make([]chan func(int), n),
		done:  make(chan struct{}, n),
		quit:  make(chan struct{}),
	}
	for i := range p.start {
		p.start[i] = make(chan func(int))
		go poolWorker(i, p.start[i], p.done, p.quit)
	}
	runtime.SetFinalizer(p, (*stepPool).stop)
	return p
}

func poolWorker(i int, start <-chan func(int), done chan<- struct{}, quit <-chan struct{}) {
	for {
		select {
		case fn := <-start:
			fn(i)
			done <- struct{}{}
		case <-quit:
			return
		}
	}
}

// run executes fn(worker) on every pool worker and waits for all of
// them; it performs no allocations.
func (p *stepPool) run(fn func(int)) {
	for _, ch := range p.start {
		ch <- fn
	}
	for range p.start {
		<-p.done
	}
}

// stop terminates the pool workers; safe to call more than once.
func (p *stepPool) stop() { p.once.Do(func() { close(p.quit) }) }

// fusedState is the lazily built per-Sim state of the fused path: the
// band scheduler plus the band-owned rings and the two view sets the
// workers alternate between. va/vb are the f-side and post-side plane
// views at build time; flip records that the current distributions
// live in vb (the sim-level views are swapped after every odd-length
// run so s.fView always names the current state for readers).
type fusedState[T num.Float] struct {
	bandRun
	scratch []*FusedScratchOf[T]
	va, vb  [][][]T
	flip    bool
}

// views returns the (src, dst) view pair for the next step.
func (fs *fusedState[T]) views() (src, dst [][][]T) {
	if fs.flip {
		return fs.vb, fs.va
	}
	return fs.va, fs.vb
}

// fusedChunkCount returns the number of bands the fused sweep should
// use for w requested workers: capped by the scheduler's usable CPUs
// (extra bands cannot run anywhere and only add redundant boundary
// work) and by NX/minBandPlanes so every band amortizes its redundancy
// tax, floor 1. SetFusedChunks overrides the heuristic.
func (s *SimOf[T]) fusedChunkCount() int {
	if s.fusedChunks > 0 {
		n := s.fusedChunks
		if n > s.P.NX {
			n = s.P.NX
		}
		return n
	}
	return usableBands(s.Workers(), s.P.NX, runtime.GOMAXPROCS(0))
}

// SetFusedChunks pins the fused path to exactly n bands (capped at
// NX), bypassing the minimum-planes heuristic; n <= 0 restores the
// heuristic. Correctness tests use it to force multi-band sweeps that
// the heuristic would (rightly) refuse on small grids or few CPUs.
func (s *SimOf[T]) SetFusedChunks(n int) {
	if n < 0 {
		n = 0
	}
	s.fusedChunks = n
}

// ensureFused (re)builds the fused bands, rings, token mesh, and pool
// for the current band count; it is a no-op once built until
// SetWorkers or SetFusedChunks changes the banding.
func (s *SimOf[T]) ensureFused(w int) {
	if s.fused != nil && len(s.fused.plan.bands) == bandCountFor(s.P.NX, w) {
		return
	}
	if s.fused != nil {
		s.fused.stop()
	}
	plan := planBands(s.P.NX, w, 2)
	fs := &fusedState[T]{va: s.fView, vb: s.postView}
	fs.plan = plan
	for range plan.bands {
		fs.scratch = append(fs.scratch, newFusedScratch(s.K, s.soa))
	}
	if len(plan.bands) > 1 {
		fs.mesh = newTokenMesh(plan)
		fs.pool = newStepPool(len(plan.bands))
		// Build-time abort, like the three-phase scheduler: a trip
		// poisons the build, so the per-run hot path allocates nothing.
		fs.abort = runctl.NewAbort()
		// One band's whole run: sweep, signal the boundary owners, and
		// wait for theirs before the next sweep. The wait covers both
		// hazard directions at once — the planes this band reads two
		// deep into its neighbors were written, and the planes it is
		// about to overwrite are no longer being read — because a
		// neighbor's token means its previous sweep finished entirely.
		// A recovered panic trips the run's abort so peers blocked on the
		// mesh unwind; see the three-phase closure in parallel.go.
		fs.work = func(i int) {
			abort := fs.abort
			defer func() {
				if r := recover(); r != nil {
					abort.Trip(&runctl.PanicError{Rank: -1, Band: i, Value: r, Stack: debug.Stack()})
				}
			}()
			hook := s.bandHook
			base := s.step
			lo, hi := fs.plan.bands[i][0], fs.plan.bands[i][1]
			src, dst := fs.views()
			for t := 0; t < fs.steps; t++ {
				if hook != nil {
					hook(i, base+t)
				}
				if !fs.mesh.wait(i, abort.Done()) {
					return
				}
				s.K.SweepFused(fs.scratch[i], src, dst, lo, hi, nil, nil, nil)
				if !fs.mesh.signal(i, abort.Done()) {
					return
				}
				src, dst = dst, src
			}
		}
	}
	s.fused = fs
}

// runFused advances n steps on the fused path. A single band sweeps
// inline, swapping the f/fPost roles per step (a pointer swap, not a
// copy) exactly like the reference step; a multi-band plan wakes the
// persistent workers once for the whole run, each worker alternating
// the view roles privately, and the coordinator reconciles the
// sim-level views once at the end.
// A worker panic surfaces as a *runctl.PanicError after every worker
// has unwound, and the fused state is poisoned for rebuild (its rings
// and view roles are no longer trustworthy).
func (s *SimOf[T]) runFused(n int) error {
	s.ensureFused(s.fusedChunkCount())
	fs := s.fused
	if fs.pool == nil {
		c := fs.plan.bands[0]
		hook := s.bandHook
		for i := 0; i < n; i++ {
			if hook != nil {
				hook(0, s.step)
			}
			src, dst := fs.views()
			s.K.SweepFused(fs.scratch[0], src, dst, c[0], c[1], nil, nil, nil)
			s.swapFused()
			s.step++
		}
		return nil
	}
	fs.steps = n
	fs.pool.run(fs.work)
	if err := fs.abort.Err(); err != nil {
		fs.stop()
		s.fused = nil
		return err
	}
	if n%2 == 1 {
		s.swapFused()
	}
	s.step += n
	return nil
}

// swapFused exchanges the f/fPost roles after an odd number of fused
// sweeps, keeping s.f and s.fView naming the current state.
func (s *SimOf[T]) swapFused() {
	s.f, s.fPost = s.fPost, s.f
	s.fView, s.postView = s.postView, s.fView
	s.fused.flip = !s.fused.flip
}
