package lbm

// Persistent plane ownership for intra-node parallelism.
//
// The original scheduler re-sharded the domain every step: each phase
// spawned goroutines over freshly computed chunks and joined them at a
// global barrier, so a step paid three full barriers (or one, fused)
// plus the spawn cost, and a worker's planes could migrate between
// steps, dragging their cache footprint along. Here each worker owns a
// fixed contiguous band of x-planes for the lifetime of the run. Its
// collision scratch and sweep rings live with the band, every plane is
// always updated by the same worker, and steps synchronize only at
// band boundaries: a worker exchanges ready tokens with the owners of
// the planes its stencil reaches, never with the whole pool.
//
// The token exchange is the shared-memory mirror of the frame protocol
// in package parlbm. A distributed rank ships its edge planes to its
// neighbours and collides their edges redundantly as ghost planes; an
// intra-node worker already shares the arrays, so the "frame" a band
// ships degenerates to a zero-byte readiness token per boundary, while
// the fused path keeps exactly the same redundant boundary collision
// (both run SweepFused). A multi-step run hands the whole loop
// to the workers: the caller rendezvouses with the pool once per run,
// and between steps the workers pace each other purely through their
// boundary tokens, so a fast band can sweep ahead of a slow distant
// band by a step instead of idling at a barrier.

import "microslip/internal/runctl"

// bandPlan is the persistent partition of the x-planes into contiguous
// worker bands, plus each band's dependency set: the distinct owners of
// every plane within the stencil reach of its boundaries. The reach is
// 1 for the three-phase path (each phase reads one plane beyond the
// band) and 2 for the fused path (its rolling sweep reads two planes
// beyond the band and recomputes the boundary ring redundantly).
type bandPlan struct {
	bands [][2]int // bands[w] = [lo, hi) planes owned by worker w
	deps  [][]int  // deps[w]: workers owning planes within reach, excluding w
}

// bandCountFor returns the number of bands planBands would produce for
// a request of nBands over nx planes, without allocating: the ensure
// paths call it every step to detect a banding change.
func bandCountFor(nx, nBands int) int {
	if nBands > nx {
		nBands = nx
	}
	if nBands < 1 {
		nBands = 1
	}
	chunk := (nx + nBands - 1) / nBands
	return (nx + chunk - 1) / chunk
}

// planBands partitions nx planes into at most nBands contiguous bands
// (ceil-sized, so every band is non-empty and sizes differ by at most
// one chunk) and derives the reach-plane dependency sets. The actual
// band count can come out below the request when nx is small.
func planBands(nx, nBands, reach int) bandPlan {
	if nBands > nx {
		nBands = nx
	}
	if nBands < 1 {
		nBands = 1
	}
	chunk := (nx + nBands - 1) / nBands
	var p bandPlan
	owner := make([]int, nx)
	for lo := 0; lo < nx; lo += chunk {
		hi := lo + chunk
		if hi > nx {
			hi = nx
		}
		w := len(p.bands)
		p.bands = append(p.bands, [2]int{lo, hi})
		for x := lo; x < hi; x++ {
			owner[x] = w
		}
	}
	for w, b := range p.bands {
		var deps []int
		add := func(x int) {
			j := owner[wrapX(x, nx)]
			if j == w {
				return
			}
			for _, d := range deps {
				if d == j {
					return
				}
			}
			deps = append(deps, j)
		}
		for r := 1; r <= reach; r++ {
			add(b[0] - r)
			add(b[1] - 1 + r)
		}
		p.deps = append(p.deps, deps)
	}
	return p
}

// tokenCap bounds the tokens in flight on one dependency edge. A
// worker sends one token per wave and cannot start a wave before
// consuming its dependencies' tokens for the previous wave, so an edge
// never holds more than the one prefilled token plus two in-flight
// waves; 4 leaves headroom and costs nothing (struct{} buffers are
// zero bytes).
const tokenCap = 4

// tokenMesh is the boundary-plane exchange fabric: one FIFO token
// channel per directed dependency edge. Senders and receivers move in
// lockstep waves — every worker sends exactly one token per dependency
// per wave and consumes exactly one per dependency per wave — so the
// indistinguishable tokens align by position: the k-th receive on an
// edge observes the sender's k-th wave. Each channel is prefilled with
// one token standing for "the state before step 0 is ready".
type tokenMesh struct {
	in  [][]chan struct{} // in[w][k] carries tokens from deps[w][k] to w
	out [][]chan struct{} // out[w][k] is the peer's inbox w signals
}

// newTokenMesh builds the mesh for a plan. Dependency sets of
// contiguous bands are symmetric (the distance between two intervals
// does not depend on the endpoint), which is what guarantees every
// outbound edge has a matching inbox on the peer.
func newTokenMesh(p bandPlan) *tokenMesh {
	m := &tokenMesh{
		in:  make([][]chan struct{}, len(p.bands)),
		out: make([][]chan struct{}, len(p.bands)),
	}
	for w, deps := range p.deps {
		m.in[w] = make([]chan struct{}, len(deps))
		for k := range deps {
			ch := make(chan struct{}, tokenCap)
			ch <- struct{}{}
			m.in[w][k] = ch
		}
	}
	for w, deps := range p.deps {
		m.out[w] = make([]chan struct{}, len(deps))
		for k, j := range deps {
			found := false
			for k2, d := range p.deps[j] {
				if d == w {
					m.out[w][k] = m.in[j][k2]
					found = true
					break
				}
			}
			if !found {
				panic("lbm: asymmetric band dependency graph")
			}
		}
	}
	return m
}

// wait consumes one token from every dependency of worker w: its
// neighbors have finished the previous wave over their whole bands, so
// every plane within reach is ready to read and none of w's planes are
// still being read. It returns false when abort fires first — a
// panicked neighbor will never send its token, so waiting workers must
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

// signal hands one token to every dependency of worker w: w's wave
// over its band is complete. It returns false when abort fires while a
// token channel is full — an aborted neighbor has stopped consuming, so
// a blocked send must unwind too.
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

// bandRun is the built state of one ownership scheduler instance: the
// plan, its token mesh, the persistent worker pool, and the cached
// per-worker closure. steps is the length of the current run; the
// coordinator writes it before waking the pool (the channel send
// publishes it to the workers) and the workers loop that many steps,
// pacing each other through the mesh. abort lives with the build (a
// trip poisons the whole scheduler): the first worker to recover a
// panic trips it so every peer blocked on the mesh unwinds instead of
// waiting for a token that will never come.
type bandRun struct {
	plan  bandPlan
	mesh  *tokenMesh
	pool  *stepPool
	steps int
	abort *runctl.Abort
	work  func(int)
}

// stop terminates the pool workers, if any.
func (r *bandRun) stop() {
	if r != nil && r.pool != nil {
		r.pool.stop()
	}
}

// minBandPlanes is the smallest band worth a dedicated worker. Below
// it the per-step synchronization (and, on the fused path, the
// redundant boundary ring recomputation) outweighs the parallel gain
// and over-sharded small grids run slower than one sweep (measured on
// a 32x48x16 grid at workers=4). Grids under 2*minBandPlanes therefore
// take the sequential fast path no matter how many workers are
// requested; SetBands and SetFusedChunks bypass the floor for
// correctness tests.
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

// splitWorkersByCost apportions total workers across the groups in
// costs so the predicted makespan max(costs[i]/out[i]) is minimized:
// every group gets one worker, then each remaining worker goes to the
// group that is currently the bottleneck. The greedy rule is exactly
// optimal for this min-max objective (giving a worker anywhere else
// leaves the bottleneck unchanged), and — unlike proportional
// largest-remainder apportionment — it does not shave workers off a
// dominant group to flatter the small ones. A total below len(costs)
// is raised to it: each group needs a worker to make progress.
// Alloc-free; the linear bottleneck scan runs over three groups in
// practice.
func splitWorkersByCost(total int, costs []float64, out []int) {
	n := len(costs)
	if total < n {
		total = n
	}
	for i := range out {
		out[i] = 1
	}
	for spare := total - n; spare > 0; spare-- {
		best, bestLoad := 0, -1.0
		for i, c := range costs {
			if c < 0 {
				c = 0
			}
			if load := c / float64(out[i]); load > bestLoad {
				best, bestLoad = i, load
			}
		}
		out[best]++
	}
}
