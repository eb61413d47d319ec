package comm

import (
	"sync"
	"testing"
)

// filled returns n copies of v.
func filled(n int, v float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = v
	}
	return out
}

// A payload Recv returns is leased: it stays intact while the sender
// keeps sending on its stream and other tags' leases turn over, until
// the next Recv from that peer under its tag.
func TestRecvLeaseOutlivesLaterSends(t *testing.T) {
	const n, rounds, extra = 64, 12, 5
	for _, tr := range transports() {
		t.Run(tr.name, func(t *testing.T) {
			eps, shutdown, err := tr.make(2)
			if err != nil {
				t.Fatal(err)
			}
			defer shutdown()
			send := func(tag int, v float64) {
				t.Helper()
				if err := eps[0].Send(1, tag, filled(n, v)); err != nil {
					t.Fatal(err)
				}
			}
			recv := func(tag int) []float64 {
				t.Helper()
				got, err := eps[1].Recv(0, tag)
				if err != nil {
					t.Fatal(err)
				}
				return got
			}
			next := 0 // the next value sent under tag 5
			send(5, float64(next))
			next++
			for k := 0; k < rounds; k++ {
				got := recv(5)
				for j := 0; j < extra; j++ {
					send(5, float64(next))
					next++
					send(6, -1)
					// Tag 6 arrives after the tag-5 sends before it, so
					// the transport has stored those when this returns.
					recv(6)
				}
				for i, v := range got {
					if v != float64(k) {
						t.Fatalf("round %d: leased payload[%d] = %v, want %v", k, i, v, float64(k))
					}
				}
			}
		})
	}
}

// AllGather results are the caller's: user-tag traffic of the same size
// and a second gather on the same endpoints leave them as they were.
func TestAllGatherResultsSurviveLaterRecv(t *testing.T) {
	for _, tr := range transports() {
		t.Run(tr.name, func(t *testing.T) {
			eps, shutdown, err := tr.make(2)
			if err != nil {
				t.Fatal(err)
			}
			defer shutdown()
			firsts := make([][][]float64, 2)
			var wg sync.WaitGroup
			for r := range eps {
				r := r
				wg.Add(1)
				go func() {
					defer wg.Done()
					c := eps[r]
					first, err := c.AllGather([]float64{float64(r), 10})
					if err != nil {
						t.Error(err)
						return
					}
					firsts[r] = first
					for k := 0; k < 6; k++ {
						if _, err := c.SendRecv(1-r, []float64{-1, -1}, 1-r, 2); err != nil {
							t.Error(err)
							return
						}
					}
					if _, err := c.AllGather([]float64{-2, -2}); err != nil {
						t.Error(err)
					}
				}()
			}
			wg.Wait()
			for r, first := range firsts {
				for q, got := range first {
					if len(got) != 2 || got[0] != float64(q) || got[1] != 10 {
						t.Errorf("rank %d: first gather's entry %d became %v", r, q, got)
					}
				}
			}
		})
	}
}

// The in-process exchange recycles its buffers: a steady-state
// SendRecv allocates nothing, between two ranks and to oneself.
func TestFabricSendRecvZeroAllocs(t *testing.T) {
	payload := filled(1024, 1.5)
	f := NewFabric(2)
	defer f.Close()
	e0, e1 := f.Endpoint(0), f.Endpoint(1)
	pair := func() {
		if err := e0.Send(1, 3, payload); err != nil {
			t.Fatal(err)
		}
		if _, err := e1.SendRecv(0, payload, 0, 3); err != nil {
			t.Fatal(err)
		}
		if _, err := e0.Recv(1, 3); err != nil {
			t.Fatal(err)
		}
	}
	self := func() {
		if _, err := e0.SendRecv(0, payload, 0, 4); err != nil {
			t.Fatal(err)
		}
	}
	for name, op := range map[string]func(){"pair": pair, "self": self} {
		op()
		op()
		if allocs := testing.AllocsPerRun(20, op); allocs != 0 {
			t.Errorf("%s SendRecv steady state: %v allocs/op, want 0", name, allocs)
		}
	}
}

// A burst leaves at most maxFree recycled buffers behind, and close
// drops them and the leases.
func TestMailboxFreeListBounded(t *testing.T) {
	f := NewFabric(2)
	e0, e1 := f.Endpoint(0), f.Endpoint(1)
	for k := 0; k < 3*maxFree; k++ {
		if err := e0.Send(1, 5, filled(32, float64(k))); err != nil {
			t.Fatal(err)
		}
	}
	for k := 0; k < 3*maxFree; k++ {
		got, err := e1.Recv(0, 5)
		if err != nil {
			t.Fatal(err)
		}
		if got[0] != float64(k) {
			t.Fatalf("message %d carries %v", k, got[0])
		}
	}
	box := f.boxes[0][1]
	if len(box.free) != maxFree || len(box.lent) != 1 {
		t.Errorf("after a %d-message burst: %d free, %d lent; want %d and 1", 3*maxFree, len(box.free), len(box.lent), maxFree)
	}
	f.Close()
	if box.free != nil || box.lent != nil {
		t.Errorf("closed mailbox keeps %d free and %d lent buffers", len(box.free), len(box.lent))
	}
}
