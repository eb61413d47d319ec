package parlbm

import (
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

// fabricPair returns the two endpoints of an in-process group, closed
// when the test ends. The fabric leases its payload buffers and recycles
// them (see package comm), so a steady-state exchange over it allocates
// nothing on either side, and a slab that aliased a receive buffer would
// see it overwritten by later traffic on its stream.
func fabricPair(t testing.TB) (comm.Comm, comm.Comm) {
	f := comm.NewFabric(2)
	t.Cleanup(f.Close)
	return f.Endpoint(0), f.Endpoint(1)
}

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
// the in-process transport, at full precision and under wire
// compression.
func TestSlimExchangeZeroAllocsSteadyState(t *testing.T) {
	for _, wire32 := range []bool{false, true} {
		e0, e1 := fabricPair(t)
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
	e0, e1 := fabricPair(t)
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

	// Keep the plane stream busy with junk of the same size: the
	// transport recycles the buffers the planes arrived in, so a slab
	// aliasing one would change. Each junk message is received, which
	// ends the last plane's lease too.
	junk := make([]float64, len(w0.planeBuf()))
	for i := range junk {
		junk[i] = -1e300
	}
	for k := 0; k < 4; k++ {
		if err := e0.Send(1, tagPlanesRight, junk); err != nil {
			t.Fatal(err)
		}
		if _, err := e1.Recv(0, tagPlanesRight); err != nil {
			t.Fatal(err)
		}
	}
	for c := range w1.f {
		for gx := 2; gx < 4; gx++ {
			plane := w1.f[c].Plane(gx)
			for i, v := range plane {
				if want := float64(c*1000000 + gx*10000 + i%97); v != want {
					t.Fatalf("slab aliases transport buffer: comp %d plane %d idx %d became %v", c, gx, i, v)
				}
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
// end (pack, send, receive, parse) on the in-process transport, which
// recycles its payload buffers: allocs/op is zero in the steady state
// (see TestSlimExchangeZeroAllocsSteadyState).
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
