package lbm

// Intra-node parallelism: bands are in-process slabs.
//
// Each band owns a fixed contiguous run of x-planes for the lifetime of
// the banding, together with its sweep rings and its frames, and
// advances its planes in place with the same fused sweep a distributed
// rank runs over its slab (SweepFused). Before each sweep a band packs
// its two frames — edge plane plus the densities of the plane behind
// it, the format of package parlbm's wire frames — into the slot of
// the step's parity, signals "frame ready" to its two neighbour bands,
// and waits for theirs; it then sweeps its planes with the neighbours'
// frames as ghost planes. A band never reads another band's planes, so
// sweeping in place is safe, and one lattice is all the solver holds.
//
// Reusing slot t%2 at step t+2 is safe: before a band packs frame t+2
// it waits for its neighbour's frame t+1, which the neighbour packs only
// after finishing sweep t — the last reader of slot t%2. A single band
// is its own neighbour on both sides: its frames wrap the periodic x
// boundary exactly as a one-rank parlbm slab's do.
//
// A multi-step run hands the whole loop to the bands: the caller
// rendezvouses with the pool once per run, and between steps the bands
// pace each other purely through their frame tokens, so a fast band can
// sweep ahead of a slow distant band instead of idling at a barrier.

import (
	"runtime"
	"runtime/debug"

	"microslip/internal/num"
	"microslip/internal/runctl"
)

// bandPlan is the persistent partition of the x-planes into contiguous
// bands, plus each band's dependency set: its distinct neighbour bands
// (none for a lone band, one for two bands).
type bandPlan struct {
	bands [][2]int // bands[w] = [lo, hi) planes owned by band w
	deps  [][]int  // deps[w]: the bands left and right of w, excluding w
}

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
// contiguous bands whose sizes differ by at most one plane, and derives
// the neighbour dependency sets.
func planBands(nx, nBands int) bandPlan {
	n := bandCountFor(nx, nBands)
	var p bandPlan
	for w := 0; w < n; w++ {
		p.bands = append(p.bands, [2]int{w * nx / n, (w + 1) * nx / n})
		var deps []int
		for _, j := range []int{(w - 1 + n) % n, (w + 1) % n} {
			if j != w && (len(deps) == 0 || deps[0] != j) {
				deps = append(deps, j)
			}
		}
		p.deps = append(p.deps, deps)
	}
	return p
}

// tokenCap bounds the tokens in flight on one dependency edge. A band
// sends its token for step t+1 only after consuming its neighbour's
// token for step t, which the neighbour sends only after consuming
// this band's token for step t-1; so an edge never holds more than two
// tokens and a signal never blocks. struct{} buffers are zero bytes.
const tokenCap = 2

// tokenMesh is the frame-ready fabric: one FIFO token channel per
// directed dependency edge. Every band sends exactly one token per
// neighbour per step and consumes exactly one per neighbour per step,
// so the indistinguishable tokens align by position: the k-th receive
// on an edge observes the sender's k-th frame.
type tokenMesh struct {
	in  [][]chan struct{} // in[w][k] carries tokens from deps[w][k] to w
	out [][]chan struct{} // out[w][k] is the peer's inbox w signals
}

// newTokenMesh builds the mesh for a plan. Neighbour sets are symmetric,
// which is what guarantees every outbound edge has a matching inbox on
// the peer.
func newTokenMesh(p bandPlan) *tokenMesh {
	m := &tokenMesh{
		in:  make([][]chan struct{}, len(p.bands)),
		out: make([][]chan struct{}, len(p.bands)),
	}
	for w, deps := range p.deps {
		m.in[w] = make([]chan struct{}, len(deps))
		for k := range deps {
			m.in[w][k] = make(chan struct{}, tokenCap)
		}
	}
	for w, deps := range p.deps {
		m.out[w] = make([]chan struct{}, len(deps))
		for k, j := range deps {
			for k2, d := range p.deps[j] {
				if d == w {
					m.out[w][k] = m.in[j][k2]
				}
			}
			if m.out[w][k] == nil {
				panic("lbm: asymmetric band dependency graph")
			}
		}
	}
	return m
}

// wait consumes one token from every neighbour of band w: their frames
// for this step are packed. It returns false when abort fires first — a
// panicked neighbour will never send its token, so waiting bands must
// unwind through the abort channel instead of hanging. The fast path
// (token already queued) costs one non-blocking receive.
func (m *tokenMesh) wait(w int, abort <-chan struct{}) bool {
	for _, ch := range m.in[w] {
		select {
		case <-ch:
		default:
			select {
			case <-ch:
			case <-abort:
				return false
			}
		}
	}
	return true
}

// signal hands one token to every neighbour of band w: its frames for
// this step are packed. It returns false when abort fires while a token
// channel is full — an aborted neighbour has stopped consuming, so a
// blocked send must unwind too.
func (m *tokenMesh) signal(w int, abort <-chan struct{}) bool {
	for _, ch := range m.out[w] {
		select {
		case ch <- struct{}{}:
		default:
			select {
			case ch <- struct{}{}:
			case <-abort:
				return false
			}
		}
	}
	return true
}

// slabOf is one band: its planes, its sweep state, and the frames it
// publishes to its neighbours.
type slabOf[T num.Float] struct {
	lo, hi      int
	left, right int // neighbour band indices (the band itself when alone)
	sweep       *FusedScratchOf[T]
	// win is the sweep window: win[1+i] views owned plane lo+i, and
	// win[0], win[len-1] take the neighbours' frame edge planes as ghost
	// planes each step.
	win [][][]T
	// frame[par][side] is the frame packed at steps of parity par (a lone
	// band uses parity 0 only): side 0 carries plane lo to the left
	// neighbour, side 1 plane hi-1 to the right. edge and far view into
	// the frames.
	frame     [2][2][]T
	edge, far [2][2][][]T
}

// bandSet is the built state of one banding: its slabs and —
// for more than one band — the frame-token mesh, the persistent worker
// pool and the cached per-band closure. steps is the length of the
// current run; the coordinator writes it before waking the pool (the
// channel send publishes it to the workers). abort lives with the build
// (a trip poisons the whole banding): the first band to recover a panic
// trips it so every peer blocked on the mesh unwinds instead of waiting
// for a token that will never come.
type bandSet[T num.Float] struct {
	slabs []slabOf[T]
	mesh  *tokenMesh
	pool  *stepPool
	abort *runctl.Abort
	steps int
	work  func(int)
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

// ensureBands (re)builds the slabs, token mesh and pool for w bands; it
// is a no-op once built until SetWorkers or SetFusedChunks changes the
// banding.
func (s *SimOf[T]) ensureBands(w int) {
	if s.bands != nil && len(s.bands.slabs) == bandCountFor(s.P.NX, w) {
		return
	}
	s.bands.stop()
	plan := planBands(s.P.NX, w)
	nb := len(plan.bands)
	parities := 1
	if nb > 1 {
		parities = 2
	}
	bs := &bandSet[T]{slabs: make([]slabOf[T], nb)}
	for i, b := range plan.bands {
		sl := &bs.slabs[i]
		sl.lo, sl.hi = b[0], b[1]
		sl.left, sl.right = (i-1+nb)%nb, (i+1)%nb
		sl.sweep = s.K.NewFusedScratch()
		sl.win = make([][][]T, b[1]-b[0]+2)
		copy(sl.win[1:], s.fView[b[0]:b[1]])
		for par := 0; par < parities; par++ {
			for side := 0; side < 2; side++ {
				sl.frame[par][side] = make([]T, s.K.FrameLen())
				sl.edge[par][side] = make([][]T, s.K.NComp)
				sl.far[par][side] = make([][]T, s.K.NComp)
				s.K.frameViews(sl.frame[par][side], sl.edge[par][side], sl.far[par][side])
			}
		}
	}
	if nb > 1 {
		bs.mesh = newTokenMesh(plan)
		bs.pool = newStepPool(nb)
		// Build-time abort: a trip poisons the build, so the per-run hot
		// path allocates nothing.
		bs.abort = runctl.NewAbort()
		// One band's whole run: pack, signal, wait for the neighbours'
		// frames, sweep. A recovered panic trips the run's abort so peers
		// blocked on the mesh unwind and the pool rendezvous completes.
		bs.work = func(i int) {
			abort := bs.abort
			defer func() {
				if r := recover(); r != nil {
					abort.Trip(&runctl.PanicError{Rank: -1, Band: i, Value: r, Stack: debug.Stack()})
				}
			}()
			hook := s.bandHook
			base := s.step
			for t := 0; t < bs.steps; t++ {
				if hook != nil {
					hook(i, base+t)
				}
				par := t & 1
				s.packFrames(i, par)
				if !bs.mesh.signal(i, abort.Done()) || !bs.mesh.wait(i, abort.Done()) {
					return
				}
				s.sweepSlab(i, par)
			}
		}
	}
	s.bands = bs
}

// packFrames packs band i's two frames into the slots of parity par.
// The plane behind an edge wraps only for a lone band narrower than two
// planes, whose frames then carry its single plane twice.
func (s *SimOf[T]) packFrames(i, par int) {
	sl := &s.bands.slabs[i]
	nx := s.P.NX
	s.K.PackFrame(sl.sweep, sl.frame[par][0], s.fView[sl.lo], s.fView[wrapX(sl.lo+1, nx)])
	s.K.PackFrame(sl.sweep, sl.frame[par][1], s.fView[sl.hi-1], s.fView[wrapX(sl.hi-2, nx)])
}

// sweepSlab advances band i one step in place, with its left
// neighbour's rightward frame and its right neighbour's leftward frame
// of parity par as ghost planes and far densities.
func (s *SimOf[T]) sweepSlab(i, par int) {
	sl := &s.bands.slabs[i]
	l, r := &s.bands.slabs[sl.left], &s.bands.slabs[sl.right]
	last := len(sl.win) - 1
	sl.win[0], sl.win[last] = l.edge[par][1], r.edge[par][0]
	s.K.SweepFused(sl.sweep, sl.win, sl.win, 1, last, l.far[par][1], r.far[par][0])
}

// runParallelErr advances n steps with the configured intra-node
// parallelism and returns a worker panic as a *runctl.PanicError. A
// lone band sweeps inline; a multi-band plan wakes the persistent
// workers once for the whole run (RunSupervised asks for one step per
// wake, the refined fine blocks for their two sub-steps). A worker
// panic surfaces after every worker has unwound, and the banding is
// poisoned for rebuild (the half-swept lattice behind it is not
// trustworthy).
func (s *SimOf[T]) runParallelErr(n int) error {
	if n < 1 {
		return nil
	}
	s.ensureBands(s.fusedChunkCount())
	bs := s.bands
	if bs.pool == nil {
		hook := s.bandHook
		for i := 0; i < n; i++ {
			if hook != nil {
				hook(0, s.step)
			}
			s.packFrames(0, 0)
			s.sweepSlab(0, 0)
			s.step++
		}
		return nil
	}
	bs.steps = n
	bs.pool.run(bs.work)
	if err := bs.abort.Err(); err != nil {
		bs.stop()
		s.bands = nil
		return err
	}
	s.step += n
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
