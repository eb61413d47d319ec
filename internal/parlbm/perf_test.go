package parlbm

import (
	"fmt"
	"testing"

	"microslip/internal/comm"
	"microslip/internal/field"
	"microslip/internal/lbm"
)

func benchWorker(b testing.TB, c comm.Comm, opts Options) *worker {
	return testWorker(lbm.WaterAir(8, 40, 12), c, opts, 4*c.Rank(), 4)
}

// testWorker assembles rank c's worker owning planes [start,
// start+count) of an equilibrium lattice, as runRank would, with a plane
// pool of its own (workers meant to form one group share one: assign
// the first worker's pool to the others).
func testWorker(p *lbm.Params, c comm.Comm, opts Options, start, count int) *worker {
	w := newWorker(p, c, opts, nil, &planePool{})
	nc := p.NComp()
	w.f = make([]*field.Slab, nc)
	for comp := 0; comp < nc; comp++ {
		w.f[comp] = field.NewSlab(p.NY, p.NZ, 19, start, count)
		for gx := start; gx < start+count; gx++ {
			w.k.InitEquilibrium(w.f[comp].Plane(gx), p.Components[comp].InitDensity)
		}
	}
	return w
}

// reuseFabric is a two-endpoint stub transport that delivers each
// (sender, receiver, tag) stream first in, first out through buffers it
// reuses: Send copies into a free buffer and queues it, Recv hands out
// the oldest queued buffer itself, and a buffer is free again once Recv
// has handed out the next one on its stream. It makes two properties
// testable in a single goroutine: the solver side of an exchange
// performs zero steady-state allocations (the transport contributes
// none to hide behind), and nothing the solver keeps (slab planes in
// particular) may alias a receive buffer the transport will overwrite.
type reuseFabric struct {
	streams map[[3]int]*reuseStream
	// bufs is every buffer the fabric ever made, for tests that
	// scribble over all of them.
	bufs [][]float64
}

// reuseStream is one (sender, receiver, tag) stream.
type reuseStream struct {
	queued [][]float64 // sent, not yet received, oldest first
	free   [][]float64
	lent   []float64 // handed out by the last Recv
}

type reuseEndpoint struct {
	f    *reuseFabric
	rank int
	size int
}

func newReusePair() (a, b *reuseEndpoint) {
	f := &reuseFabric{streams: make(map[[3]int]*reuseStream)}
	return &reuseEndpoint{f: f, rank: 0, size: 2}, &reuseEndpoint{f: f, rank: 1, size: 2}
}

func (e *reuseEndpoint) Rank() int { return e.rank }
func (e *reuseEndpoint) Size() int { return e.size }

func (e *reuseEndpoint) Send(to, tag int, data []float64) error {
	key := [3]int{e.rank, to, tag}
	st := e.f.streams[key]
	if st == nil {
		st = &reuseStream{}
		e.f.streams[key] = st
	}
	var buf []float64
	if n := len(st.free); n > 0 {
		buf = st.free[n-1]
		st.free = st.free[:n-1]
	}
	if cap(buf) < len(data) {
		buf = make([]float64, len(data))
		e.f.bufs = append(e.f.bufs, buf)
	}
	buf = buf[:len(data)]
	copy(buf, data)
	st.queued = append(st.queued, buf)
	return nil
}

func (e *reuseEndpoint) Recv(from, tag int) ([]float64, error) {
	st := e.f.streams[[3]int{from, e.rank, tag}]
	if st == nil || len(st.queued) == 0 {
		return nil, fmt.Errorf("reuseEndpoint: no message from %d tag %d", from, tag)
	}
	buf := st.queued[0]
	n := copy(st.queued, st.queued[1:])
	st.queued = st.queued[:n]
	if st.lent != nil {
		st.free = append(st.free, st.lent)
	}
	st.lent = buf
	return buf, nil
}

func (e *reuseEndpoint) SendRecv(to int, send []float64, from, tag int) ([]float64, error) {
	if err := e.Send(to, tag, send); err != nil {
		return nil, err
	}
	return e.Recv(from, tag)
}

func (e *reuseEndpoint) Barrier() error { return nil }

func (e *reuseEndpoint) AllGather(data []float64) ([][]float64, error) {
	return nil, fmt.Errorf("reuseEndpoint: AllGather unsupported")
}

func (e *reuseEndpoint) Close() error { return nil }

// A single rank's phase is entirely rank-side — frames packed to
// itself, parsed as its ghosts, the in-place sweep, the checkpoint
// density copy — and must not allocate in the steady state.
func TestHaloPackPathZeroAllocs(t *testing.T) {
	f := comm.NewFabric(1)
	defer f.Close()
	w := testWorker(lbm.WaterAir(8, 10, 6), f.Endpoint(0), Options{Checkpoint: &CheckpointSpec{}}, 0, 8)
	if err := w.phase(0); err != nil { // warm the window and frame buffers
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(10, func() {
		if err := w.phase(1); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("single-rank phase steady state: %v allocs/op, want 0", allocs)
	}
}

// A full two-rank phase — frames packed, sent, received and parsed in
// place, then the sweep — must be allocation-free in the steady state on
// a transport that reuses its buffers, at full precision and under wire
// compression.
func TestSlimExchangeZeroAllocsSteadyState(t *testing.T) {
	for _, wire32 := range []bool{false, true} {
		e0, e1 := newReusePair()
		ws := []*worker{
			benchWorker(t, e0, Options{WireF32: wire32}),
			benchWorker(t, e1, Options{WireF32: wire32}),
		}
		phase := func() {
			for _, w := range ws {
				if err := w.postFrames(); err != nil {
					t.Fatal(err)
				}
			}
			for _, w := range ws {
				if err := w.recvFrames(); err != nil {
					t.Fatal(err)
				}
				w.slab.Sweep()
			}
		}
		phase() // warm buffers and transport streams
		if allocs := testing.AllocsPerRun(10, phase); allocs != 0 {
			t.Errorf("two-rank phase (wire32=%v): %v allocs/op, want 0", wire32, allocs)
		}
	}
}

// pingPong shuttles count planes w0 -> w1 and back once.
func pingPong(t *testing.T, w0, w1 *worker, count int) {
	t.Helper()
	steps := []struct {
		w        *worker
		neighbor int
		net      int
	}{
		{w0, 1, count}, {w1, 0, count}, // rightward: w0 sends, w1 receives
		{w1, 0, -count}, {w0, 1, -count}, // leftward: back again
	}
	for _, s := range steps {
		if err := s.w.moveBoundary(s.neighbor, s.net); err != nil {
			t.Fatal(err)
		}
	}
}

// Plane migration must (a) preserve plane contents exactly, (b) never
// leave a slab aliasing a transport receive buffer, and (c) allocate
// nothing in the steady state: per plane pop, pack, send, receive, copy
// into a plane from the group pool, push.
func TestMigrationZeroAllocAndNoAliasing(t *testing.T) {
	e0, e1 := newReusePair()
	w0 := benchWorker(t, e0, Options{})
	w1 := benchWorker(t, e1, Options{})
	w1.pool = w0.pool // one group, one plane pool

	// Distinctive, position-dependent contents.
	stamp := func(w *worker) {
		for c := range w.f {
			for gx := w.f[c].Start; gx < w.f[c].End(); gx++ {
				plane := w.f[c].Plane(gx)
				for i := range plane {
					plane[i] = float64(c*1000000 + gx*10000 + i%97)
				}
			}
		}
	}
	stamp(w0)
	stamp(w1)

	// Move two planes w0 -> w1 and verify values arrived bit-exact.
	if err := w0.moveBoundary(1, 2); err != nil {
		t.Fatal(err)
	}
	if err := w1.moveBoundary(0, 2); err != nil {
		t.Fatal(err)
	}
	if got, want := w1.f[0].Start, 2; got != want {
		t.Fatalf("receiver start %d, want %d", got, want)
	}
	for c := range w1.f {
		for gx := 2; gx < 4; gx++ {
			plane := w1.f[c].Plane(gx)
			for i, v := range plane {
				if want := float64(c*1000000 + gx*10000 + i%97); v != want {
					t.Fatalf("comp %d plane %d idx %d: got %v want %v", c, gx, i, v, want)
				}
			}
		}
	}

	// Scribble over every transport buffer; slab contents must not move.
	for _, buf := range e0.f.bufs {
		for i := range buf[:cap(buf)] {
			buf[i] = -1e300
		}
	}
	for c := range w1.f {
		plane := w1.f[c].Plane(2)
		for i, v := range plane {
			if want := float64(c*1000000 + 2*10000 + i%97); v != want {
				t.Fatalf("slab aliases transport buffer: comp %d idx %d became %v", c, i, v)
			}
		}
	}

	// Send them back, then ping-pong until pools and buffers are warm;
	// the steady-state transfer must not allocate.
	if err := w1.moveBoundary(0, -2); err != nil {
		t.Fatal(err)
	}
	if err := w0.moveBoundary(1, -2); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		pingPong(t, w0, w1, 2)
	}
	if allocs := testing.AllocsPerRun(10, func() {
		pingPong(t, w0, w1, 2)
	}); allocs != 0 {
		t.Errorf("steady-state migration: %v allocs/op, want 0", allocs)
	}

	// Contents must have survived all the shuttling.
	for c := range w0.f {
		for gx := w0.f[c].Start; gx < w0.f[c].End(); gx++ {
			plane := w0.f[c].Plane(gx)
			for i, v := range plane {
				if want := float64(c*1000000 + gx*10000 + i%97); v != want {
					t.Fatalf("after ping-pong: comp %d plane %d idx %d: got %v want %v", c, gx, i, v, want)
				}
			}
		}
	}
}

// BenchmarkFrameExchange measures the two-rank frame exchange end to
// end (pack, send, receive, parse) on the in-process transport.
// allocs/op isolates the transport's per-message copy; the rank side
// contributes zero (see TestSlimExchangeZeroAllocsSteadyState).
func BenchmarkFrameExchange(b *testing.B) {
	f := comm.NewFabric(2)
	defer f.Close()
	w0 := benchWorker(b, f.Endpoint(0), Options{})
	w1 := benchWorker(b, f.Endpoint(1), Options{})
	b.SetBytes(int64(2 * 8 * w0.k.FrameLen()))
	b.ReportAllocs()
	b.ResetTimer()
	exchange := func(w *worker) error {
		if err := w.postFrames(); err != nil {
			return err
		}
		return w.recvFrames()
	}
	done := make(chan error, 1)
	go func() {
		for i := 0; i < b.N; i++ {
			if err := exchange(w1); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for i := 0; i < b.N; i++ {
		if err := exchange(w0); err != nil {
			b.Fatal(err)
		}
	}
	if err := <-done; err != nil {
		b.Fatal(err)
	}
}

// BenchmarkPhase measures one full LBM phase per rank on two ranks.
func BenchmarkPhase(b *testing.B) {
	p := lbm.WaterAir(16, 40, 12)
	b.ReportAllocs()
	b.ResetTimer()
	if _, _, err := RunParallel(p, 2, Options{Phases: b.N}); err != nil {
		b.Fatal(err)
	}
}
