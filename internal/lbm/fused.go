package lbm

import (
	"fmt"
	"runtime"
	"sync"

	"microslip/internal/num"
)

// The fused collide+stream sweep. The reference step makes three full
// passes over the distribution arrays (densities, collide, stream),
// each of which streams every plane through the cache. The fused sweep
// makes a single rolling pass (SweepFused): as the sweep front advances
// one plane, it computes that plane's densities, collides the plane
// behind the front, and streams the plane behind that — the three
// kernels consume each plane while it is still cache-hot. Densities and
// post-collision values live in rings of three plane sets (the
// dependency depth of the D3Q19 stencil along x), so the sweep touches
// the lattice only as its source and, in place, as its destination,
// and allocates nothing in the steady state.
//
// Every stepping path outside the serial reference Step is this sweep
// run in place over a slab of planes behind one frame per neighbour
// (see SlabSweepOf): a band of the sequential solver and a distributed
// rank differ only in where the neighbour's frame comes from.

// FusedScratchOf is the state one fused sweep carries: its rolling
// rings plus the collision scratch. A band or rank owns one for its
// lifetime; it must not be shared between concurrent sweeps.
type FusedScratchOf[T num.Float] struct {
	sc   *ScratchOf[T]
	n    [3][][]T // n[slot][c]: density plane ring
	post [3][][]T // post[slot][c]: post-collision plane ring
	// edge and far are PackFrame's per-component headers into the frame
	// it is filling.
	edge, far [][]T
}

// FusedScratch is the double-precision sweep state.
type FusedScratch = FusedScratchOf[float64]

// NewFusedScratch allocates the sweep state.
func (k *KernelOf[T]) NewFusedScratch() *FusedScratchOf[T] {
	fs := &FusedScratchOf[T]{sc: k.NewScratch(), edge: make([][]T, k.NComp), far: make([][]T, k.NComp)}
	for s := 0; s < 3; s++ {
		fs.n[s] = make([][]T, k.NComp)
		fs.post[s] = make([][]T, k.NComp)
		for c := 0; c < k.NComp; c++ {
			fs.n[s][c] = make([]T, k.PlaneCells())
			fs.post[s][c] = make([]T, k.PlaneLen())
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
// hi+1 and replace computing them from src: a slab holds its
// neighbours' edge planes but not the planes behind them. dst may be
// src itself when the window does not wrap onto the swept planes
// (lo-2 .. hi+1 are distinct entries): every plane is read for the
// last time before it is overwritten.
func (k *KernelOf[T]) SweepFused(fs *FusedScratchOf[T], src, dst [][][]T, lo, hi int, farL, farR [][]T) {
	nx := len(src)
	density := func(x int) {
		n := fs.n[slot3(x)]
		switch {
		case x == lo-2 && farL != nil:
			copyPlanes(n, farL)
		case x == hi+1 && farR != nil:
			copyPlanes(n, farR)
		default:
			k.Densities(src[wrapX(x, nx)], n)
		}
	}
	// Prime the density ring behind the sweep front.
	density(lo - 2)
	density(lo - 1)
	for x := lo - 1; x <= hi; x++ {
		// Advance the front: densities one plane ahead, so the stencil
		// window n(x-1), n(x), n(x+1) is complete for the collision.
		density(x + 1)
		k.CollideScratch(fs.sc, fs.n[slot3(x-1)], fs.n[slot3(x)], fs.n[slot3(x+1)],
			src[wrapX(x, nx)], fs.post[slot3(x)])
		// Stream two planes behind the front, where post(x-2), post(x-1)
		// and post(x) are all available. x-1 stays inside [lo, hi):
		// the boundary collisions at lo-1 and hi are the redundant ones.
		if x < lo+1 {
			continue
		}
		k.Stream(fs.post[slot3(x-2)], fs.post[slot3(x-1)], fs.post[slot3(x)], dst[wrapX(x-1, nx)])
	}
}

// copyPlanes copies every component plane of src into dst.
func copyPlanes[T num.Float](dst, src [][]T) {
	for c := range src {
		copy(dst[c], src[c])
	}
}

// FrameKind heads every frame. A slab owning planes [lo, hi) sends its
// left neighbour the frame of plane lo — the pre-collision plane of
// every component, then the densities of plane lo+1 — and its right
// neighbour the frame of plane hi-1 with the densities of plane hi-2.
// That is everything the receiver's sweep needs beyond its own planes:
// the ghost plane itself (whose densities it recomputes) and the
// density plane behind it for the ghost's psi-gradient. A frame is a
// copy, so its sender may overwrite the edge plane in place while the
// receiver still reads the frame.
const FrameKind = 1

// MinFramePlanes is the fewest planes a slab sharing the lattice with
// others may own: its frames carry its edge plane and the densities of
// the plane behind it, which must be its own. A lone slab is exempt —
// its frames wrap onto itself.
const MinFramePlanes = 2

// FrameLen returns the length of one frame: the kind header, the edge
// plane of every component, then the far densities of every component.
func (k *KernelOf[T]) FrameLen() int {
	return 1 + k.NComp*(k.PlaneLen()+k.PlaneCells())
}

// frameViews points edge[c] and far[c] at component c's edge plane and
// far densities inside frame buf.
func (k *KernelOf[T]) frameViews(buf []T, edge, far [][]T) {
	nc, sz, cells := k.NComp, k.PlaneLen(), k.PlaneCells()
	for c := 0; c < nc; c++ {
		edge[c] = buf[1+c*sz : 1+(c+1)*sz]
		far[c] = buf[1+nc*sz+c*cells : 1+nc*sz+(c+1)*cells]
	}
}

// PackFrame fills buf, reusing its capacity, with the frame of the edge
// planes edge and returns it: the kind header, a copy of edge, then the
// densities of the planes far, computed straight into the frame.
func (k *KernelOf[T]) PackFrame(fs *FusedScratchOf[T], buf []T, edge, far [][]T) []T {
	need := k.FrameLen()
	if cap(buf) < need {
		buf = make([]T, need)
	}
	buf = buf[:need]
	buf[0] = FrameKind
	k.frameViews(buf, fs.edge, fs.far)
	copyPlanes(fs.edge, edge)
	k.Densities(far, fs.far)
	return buf
}

// ParseFrame checks a frame's length and kind header and points
// ghost[c] and far[c] at its edge plane and far densities, which a
// sweep takes as its ghost plane and farL/farR.
func (k *KernelOf[T]) ParseFrame(msg []T, ghost, far [][]T) error {
	if len(msg) != k.FrameLen() {
		return fmt.Errorf("frame size %d, want %d", len(msg), k.FrameLen())
	}
	if msg[0] != FrameKind {
		return fmt.Errorf("unknown frame kind %v", msg[0])
	}
	k.frameViews(msg, ghost, far)
	return nil
}

// SlabSweepOf is one slab's step — the paper's Figure 2 phase — shared
// by a band of the sequential solver and a distributed rank: Pack the
// two frames of the owned planes, hand each neighbour's frame to Ghost,
// then Sweep the owned planes in place. The two differ only in where a
// neighbour's frame comes from: a peer band's memory or the wire.
type SlabSweepOf[T num.Float] struct {
	k  *KernelOf[T]
	fs *FusedScratchOf[T]
	// win is the sweep window: win[1+i] views owned plane i of every
	// component, win[0] and win[count+1] the ghost planes Ghost points
	// into the neighbours' frames.
	win [][][]T
	// frame[0] carries the first owned plane leftward, frame[1] the last
	// rightward; far[0] and far[1] view the ghosts' far densities.
	frame [2][]T
	far   [2][][]T
}

// SlabSweep is the double-precision slab step.
type SlabSweep = SlabSweepOf[float64]

// NewSlabSweep allocates an unbound slab step; Bind it before use.
func (k *KernelOf[T]) NewSlabSweep() *SlabSweepOf[T] {
	return &SlabSweepOf[T]{k: k, fs: k.NewFusedScratch(), far: [2][][]T{make([][]T, k.NComp), make([][]T, k.NComp)}}
}

// Bind points the window at count owned planes, plane(i, c) being
// owned plane i of component c. Storage only grows, so rebinding to a
// slab that migration resized allocates nothing once the window has
// been that large; entries past the window drop their views, so a
// plane that has left the slab is not kept reachable from here.
func (s *SlabSweepOf[T]) Bind(count int, plane func(i, c int) []T) {
	need := count + 2
	if cap(s.win) < need {
		grown := make([][][]T, need, 2*need)
		copy(grown, s.win[:cap(s.win)])
		s.win = grown
	}
	for _, stale := range s.win[need:cap(s.win)] {
		clear(stale)
	}
	s.win = s.win[:need]
	for i, v := range s.win {
		if v == nil {
			s.win[i] = make([][]T, s.k.NComp)
		}
	}
	for i := 0; i < count; i++ {
		for c := range s.win[1+i] {
			s.win[1+i][c] = plane(i, c)
		}
	}
}

// Pack builds the slab's two frames: toLeft carries its first plane and
// the densities of the second, toRight its last plane and the densities
// of the one before. A one-plane slab's frames carry its plane twice.
func (s *SlabSweepOf[T]) Pack() (toLeft, toRight []T) {
	n := len(s.win) - 2
	s.frame[0] = s.k.PackFrame(s.fs, s.frame[0], s.win[1], s.win[1+1%n])
	s.frame[1] = s.k.PackFrame(s.fs, s.frame[1], s.win[n], s.win[1+(2*n-2)%n])
	return s.frame[0], s.frame[1]
}

// Ghost takes a neighbour's frame as the ghost plane and far densities
// of side 0 (the left neighbour's rightward frame) or side 1 (the right
// neighbour's leftward frame). The slab reads the frame until Sweep
// returns, so its sender must not repack it before then.
func (s *SlabSweepOf[T]) Ghost(side int, frame []T) error {
	ghost := s.win[0]
	if side == 1 {
		ghost = s.win[len(s.win)-1]
	}
	return s.k.ParseFrame(frame, ghost, s.far[side])
}

// Sweep advances the owned planes one step in place behind the ghosts.
func (s *SlabSweepOf[T]) Sweep() {
	last := len(s.win) - 1
	s.k.SweepFused(s.fs, s.win, s.win, 1, last, s.far[0], s.far[1])
}

// stepPool is the persistent goroutine pool of the band scheduler:
// spawning goroutines every run would allocate, parked
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
