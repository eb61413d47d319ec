package parlbm

import (
	"fmt"
	"testing"

	"microslip/internal/comm"
	"microslip/internal/field"
	"microslip/internal/lattice"
	"microslip/internal/lbm"
)

func benchWorker(b testing.TB, c comm.Comm, opts Options) *worker {
	return testWorker(lbm.WaterAir(8, 40, 12), c, opts, 4*c.Rank(), 4)
}

// testWorker assembles rank c's worker owning planes [start,
// start+count) of an equilibrium lattice, as runRank would.
func testWorker(p *lbm.Params, c comm.Comm, opts Options, start, count int) *worker {
	w := &worker{
		p: p, k: lbm.NewKernel(p), c: c, opts: opts,
		rank: c.Rank(), size: c.Size(),
		res: &Result{Rank: c.Rank()},
	}
	w.sc = w.k.NewScratch()
	nc := p.NComp()
	w.ghostHdrL = make([][]float64, nc)
	w.ghostHdrR = make([][]float64, nc)
	w.f = make([]*field.Slab, nc)
	w.n = make([]*field.Slab, nc)
	w.fPost = make([]*field.Slab, nc)
	for comp := 0; comp < nc; comp++ {
		w.f[comp] = field.NewSlab(p.NY, p.NZ, 19, start, count)
		w.fPost[comp] = field.NewSlab(p.NY, p.NZ, 19, start, count)
		w.n[comp] = field.NewSlab(p.NY, p.NZ, 1, start, count)
		for gx := start; gx < start+count; gx++ {
			w.k.InitEquilibrium(w.f[comp].Plane(gx), p.Components[comp].InitDensity)
		}
	}
	w.rebuildViews()
	return w
}

// reuseFabric is a two-endpoint stub transport whose per-(sender,
// receiver, tag) message slots are reused across sends: Send copies
// into the slot, Recv returns the slot itself. It makes two properties
// testable in a single goroutine: the solver side of an exchange
// performs zero steady-state allocations (the transport contributes
// none to hide behind), and nothing the solver keeps (slab planes in
// particular) may alias a receive buffer the transport will overwrite.
type reuseFabric struct {
	slots map[[3]int][]float64
}

type reuseEndpoint struct {
	f    *reuseFabric
	rank int
	size int
}

func newReusePair() (a, b *reuseEndpoint) {
	f := &reuseFabric{slots: make(map[[3]int][]float64)}
	return &reuseEndpoint{f: f, rank: 0, size: 2}, &reuseEndpoint{f: f, rank: 1, size: 2}
}

func (e *reuseEndpoint) Rank() int { return e.rank }
func (e *reuseEndpoint) Size() int { return e.size }

func (e *reuseEndpoint) Send(to, tag int, data []float64) error {
	key := [3]int{e.rank, to, tag}
	buf := e.f.slots[key]
	if cap(buf) < len(data) {
		buf = make([]float64, len(data))
	}
	buf = buf[:len(data)]
	copy(buf, data)
	e.f.slots[key] = buf
	return nil
}

func (e *reuseEndpoint) Recv(from, tag int) ([]float64, error) {
	buf, ok := e.f.slots[[3]int{from, e.rank, tag}]
	if !ok {
		return nil, fmt.Errorf("reuseEndpoint: no message from %d tag %d", from, tag)
	}
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

// The rank-side pack/unpack hot path of the halo exchange must not
// allocate in the steady state: packPlanes/packCrossing reuse the
// worker's send buffers and recvHalos reuses its ghost-view headers.
// (The transport itself copies each message once by contract; that
// copy lives in the comm layer, not here.)
func TestHaloPackPathZeroAllocs(t *testing.T) {
	f := comm.NewFabric(1)
	defer f.Close()
	w := benchWorker(t, f.Endpoint(0), Options{})

	w.packL = packPlanes(w.packL, w.f, w.f[0].Start) // warm the buffer
	if allocs := testing.AllocsPerRun(10, func() {
		w.packL = packPlanes(w.packL, w.f, w.f[0].Start)
	}); allocs != 0 {
		t.Errorf("packPlanes steady state: %v allocs/op, want 0", allocs)
	}

	w.packR = packCrossing(w.packR, w.f, w.f[0].Start, &lattice.RightGoing)
	if allocs := testing.AllocsPerRun(10, func() {
		w.packR = packCrossing(w.packR, w.f, w.f[0].Start, &lattice.RightGoing)
	}); allocs != 0 {
		t.Errorf("packCrossing steady state: %v allocs/op, want 0", allocs)
	}

	// Ghost unpacking into the reusable headers.
	payload := make([]float64, len(w.f)*w.f[0].PlaneSize())
	sz := w.f[0].PlaneSize()
	if allocs := testing.AllocsPerRun(10, func() {
		for c := 0; c < len(w.f); c++ {
			w.ghostHdrL[c] = payload[c*sz : (c+1)*sz]
			w.ghostHdrR[c] = payload[c*sz : (c+1)*sz]
		}
	}); allocs != 0 {
		t.Errorf("ghost header reuse: %v allocs/op, want 0", allocs)
	}

	// Single-rank exchange (periodic wrap) is entirely rank-side.
	if _, _, err := w.exchangeDensityHalos(); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(10, func() {
		if _, _, err := w.exchangeDensityHalos(); err != nil {
			t.Fatal(err)
		}
		if _, _, err := w.exchangeDistHalos(); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("single-rank halo exchange: %v allocs/op, want 0", allocs)
	}
}

// The full two-rank slim exchange — pack, send, receive, consume-in-
// place — must be allocation-free in the steady state on a transport
// that reuses its buffers, and so must the coalesced frame path.
func TestSlimExchangeZeroAllocsSteadyState(t *testing.T) {
	e0, e1 := newReusePair()
	w0 := benchWorker(t, e0, Options{})
	w1 := benchWorker(t, e1, Options{})
	exchange := func() {
		for _, w := range []*worker{w0, w1} {
			if err := w.postDensityHalos(); err != nil {
				t.Fatal(err)
			}
			if err := w.postDistHalos(); err != nil {
				t.Fatal(err)
			}
		}
		for _, w := range []*worker{w0, w1} {
			if _, _, err := w.recvDensityHalos(); err != nil {
				t.Fatal(err)
			}
			if _, _, err := w.recvDistHalos(); err != nil {
				t.Fatal(err)
			}
		}
	}
	exchange() // warm buffers and transport slots
	if allocs := testing.AllocsPerRun(10, exchange); allocs != 0 {
		t.Errorf("two-rank slim exchange: %v allocs/op, want 0", allocs)
	}

	w0.ensureCoalesceBufs()
	w1.ensureCoalesceBufs()
	frames := func() {
		for _, w := range []*worker{w0, w1} {
			if err := w.postFrames(); err != nil {
				t.Fatal(err)
			}
		}
		for _, w := range []*worker{w0, w1} {
			if err := w.recvFrames(); err != nil {
				t.Fatal(err)
			}
		}
	}
	frames()
	if allocs := testing.AllocsPerRun(10, frames); allocs != 0 {
		t.Errorf("coalesced frame exchange: %v allocs/op, want 0", allocs)
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
// nothing in the steady state: pop, pack, send, receive, copy into
// pooled storage, push, shift the cached views.
func TestMigrationZeroAllocAndNoAliasing(t *testing.T) {
	e0, e1 := newReusePair()
	w0 := benchWorker(t, e0, Options{})
	w1 := benchWorker(t, e1, Options{})

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
	// Views must track the new ownership.
	if &w1.fAt(2)[0][0] != &w1.f[0].Plane(2)[0] {
		t.Fatal("cached views not updated for received planes")
	}

	// Scribble over every transport slot; slab contents must not move.
	for _, slot := range e0.f.slots {
		for i := range slot {
			slot[i] = -1e300
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

// BenchmarkHaloExchange measures the fault-free two-rank halo exchange
// end to end (pack, send, receive, unpack) on the in-process
// transport. allocs/op isolates the transport's per-message copy; the
// rank-side pack/unpack path contributes zero (see
// TestHaloPackPathZeroAllocs).
func BenchmarkHaloExchange(b *testing.B) {
	for _, wide := range []bool{false, true} {
		name := "halo=slim"
		if wide {
			name = "halo=wide"
		}
		b.Run(name, func(b *testing.B) {
			f := comm.NewFabric(2)
			defer f.Close()
			opts := Options{WideHalo: wide}
			w0 := benchWorker(b, f.Endpoint(0), opts)
			w1 := benchWorker(b, f.Endpoint(1), opts)
			per := w0.f[0].PlaneSize()
			if !wide {
				per = w0.k.PlaneCells() * lattice.CrossQ
			}
			b.SetBytes(int64(2 * len(w0.f) * per * 8))
			b.ReportAllocs()
			b.ResetTimer()
			done := make(chan error, 1)
			go func() {
				for i := 0; i < b.N; i++ {
					if _, _, err := w1.exchangeDistHalos(); err != nil {
						done <- err
						return
					}
				}
				done <- nil
			}()
			for i := 0; i < b.N; i++ {
				if _, _, err := w0.exchangeDistHalos(); err != nil {
					b.Fatal(err)
				}
			}
			if err := <-done; err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkPhase measures one full LBM phase per rank on two ranks
// across the exchange schedules.
func BenchmarkPhase(b *testing.B) {
	for _, cfg := range []struct {
		name string
		opts Options
	}{
		{"overlap=off", Options{}},
		{"overlap=on", Options{Overlap: true}},
		{"wide", Options{WideHalo: true}},
		{"coalesce", Options{Coalesce: true}},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			p := lbm.WaterAir(16, 40, 12)
			opts := cfg.opts
			opts.Phases = b.N
			b.ReportAllocs()
			b.ResetTimer()
			_, _, err := RunParallel(p, 2, opts)
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}
