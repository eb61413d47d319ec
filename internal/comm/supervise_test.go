package comm

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

// plainComm hides every optional capability of a wrapped endpoint, so
// tests can exercise the supervision layer's DeadlineRecver-less
// fallback.
type plainComm struct {
	inner Comm
}

func (p *plainComm) Rank() int { return p.inner.Rank() }
func (p *plainComm) Size() int { return p.inner.Size() }
func (p *plainComm) Send(to, tag int, data []float64) error {
	return p.inner.Send(to, tag, data)
}
func (p *plainComm) Recv(from, tag int) ([]float64, error) {
	return p.inner.Recv(from, tag)
}
func (p *plainComm) SendRecv(to int, send []float64, from, tag int) ([]float64, error) {
	return p.inner.SendRecv(to, send, from, tag)
}
func (p *plainComm) Barrier() error                             { return p.inner.Barrier() }
func (p *plainComm) AllGather(l []float64) ([][]float64, error) { return p.inner.AllGather(l) }
func (p *plainComm) Close() error                               { return p.inner.Close() }

// A supervised deadline receive must fall back to a plain blocking
// receive when the wrapped endpoint lacks DeadlineRecver, delivering
// data rather than erroring on the missing capability.
func TestRecvDeadlineFallbackWithoutCapability(t *testing.T) {
	f := NewFabric(2)
	defer f.Close()
	eps := f.Endpoints()
	bare := &plainComm{inner: eps[1]}
	if _, ok := Comm(bare).(DeadlineRecver); ok {
		t.Fatal("plainComm must not implement DeadlineRecver")
	}
	want := []float64{4, 5, 6}
	go eps[0].Send(1, 3, want)
	got, err := WithSupervision(bare, nil, 0).RecvDeadline(0, 3, time.Nanosecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) || got[0] != want[0] {
		t.Fatalf("fallback recv got %v, want %v", got, want)
	}
}

// The Fabric is a reliable transport with a native deadline receive: a
// bounded receive on a silent peer expires with ErrTimeout, and the
// mailbox stays usable — a later message is received normally by a
// reissued bounded receive.
func TestReliableRecvDeadlineExpiry(t *testing.T) {
	f := NewFabric(2)
	defer f.Close()
	eps := f.Endpoints()
	rc := eps[1].(DeadlineRecver)

	start := time.Now()
	_, err := rc.RecvDeadline(0, 1, 30*time.Millisecond)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("RecvDeadline on silence = %v, want ErrTimeout", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("deadline did not bound the wait: %v", elapsed)
	}

	want := []float64{7, 8}
	go eps[0].Send(1, 1, want)
	got, err := rc.RecvDeadline(0, 1, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != 7 || got[1] != 8 {
		t.Fatalf("reissued recv got %v, want %v", got, want)
	}
}

// On the Fabric's deadline receive a zero timeout means a plain
// blocking receive, not an instant expiry.
func TestReliableRecvDeadlineZeroTimeoutBlocks(t *testing.T) {
	f := NewFabric(2)
	defer f.Close()
	eps := f.Endpoints()
	go func() {
		time.Sleep(20 * time.Millisecond)
		eps[0].Send(1, 2, []float64{1})
	}()
	got, err := eps[1].(DeadlineRecver).RecvDeadline(0, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != 1 {
		t.Fatalf("got %v", got)
	}
}

// The supervised deadline fallback also covers an endpoint whose deadline
// capability is hidden by embedding only the Comm interface.
func TestRecvDeadlineFallsBackWithoutCapability(t *testing.T) {
	f := NewFabric(2)
	defer f.Close()
	type opaque struct{ Comm }
	ep := opaque{f.Endpoint(1)}
	if _, ok := Comm(ep).(DeadlineRecver); ok {
		t.Fatal("opaque must not implement DeadlineRecver")
	}
	if err := f.Endpoint(0).Send(1, 0, []float64{7}); err != nil {
		t.Fatal(err)
	}
	got, err := WithSupervision(ep, func() error { return nil }, 0).RecvDeadline(0, 0, time.Millisecond)
	if err != nil || len(got) != 1 || got[0] != 7 {
		t.Fatalf("fallback recv: %v %v", got, err)
	}
}

// The mailbox deadline primitive under the Fabric's RecvDeadline:
// expiry, delivery, and close all surface with the right error.
func TestMailboxTakeDeadline(t *testing.T) {
	m := newMailbox()
	if _, err := m.takeDeadline(0, time.Now().Add(2*time.Millisecond)); !errors.Is(err, ErrTimeout) {
		t.Fatalf("want ErrTimeout, got %v", err)
	}
	m.put(0, []float64{1})
	got, err := m.takeDeadline(0, time.Now().Add(time.Second))
	if err != nil || got[0] != 1 {
		t.Fatalf("take: %v %v", got, err)
	}
	m.close()
	if _, err := m.takeDeadline(0, time.Now().Add(time.Second)); !errors.Is(err, ErrClosed) {
		t.Fatalf("want ErrClosed, got %v", err)
	}
}

// A supervised receive parked on a silent peer must fail promptly when
// the check trips, returning the check's error.
func TestSupervisedRecvUnblocksOnCheck(t *testing.T) {
	f := NewFabric(2)
	defer f.Close()
	eps := f.Endpoints()
	cause := errors.New("abort: test cause")
	var tripped atomic.Bool
	check := func() error {
		if tripped.Load() {
			return cause
		}
		return nil
	}
	sc := WithSupervision(eps[1], check, time.Millisecond)
	done := make(chan error, 1)
	go func() {
		_, err := sc.Recv(0, 4) // nothing will ever arrive
		done <- err
	}()
	time.Sleep(5 * time.Millisecond)
	tripped.Store(true)
	select {
	case err := <-done:
		if !errors.Is(err, cause) {
			t.Fatalf("supervised recv error = %v, want wrapped cause", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("supervised recv did not unblock on check trip")
	}
}

// Supervised collectives run over their own reserved tags and complete
// normally while the check stays nil-error; a tripped check unwinds a
// rank parked in the barrier.
func TestSupervisedCollectives(t *testing.T) {
	f := NewFabric(3)
	defer f.Close()
	var tripped atomic.Bool
	cause := errors.New("abort: barrier test")
	check := func() error {
		if tripped.Load() {
			return cause
		}
		return nil
	}
	eps := WithSupervisionAll(f.Endpoints(), check, time.Millisecond)

	// Healthy path: barrier + allgather across all ranks.
	type gatherOut struct {
		rank int
		rows [][]float64
		err  error
	}
	outs := make(chan gatherOut, len(eps))
	for r, ep := range eps {
		go func(r int, ep Comm) {
			if err := ep.Barrier(); err != nil {
				outs <- gatherOut{r, nil, err}
				return
			}
			rows, err := ep.AllGather([]float64{float64(r) * 10})
			outs <- gatherOut{r, rows, err}
		}(r, ep)
	}
	for range eps {
		o := <-outs
		if o.err != nil {
			t.Fatalf("rank %d collective: %v", o.rank, o.err)
		}
		for q := range eps {
			if len(o.rows[q]) != 1 || o.rows[q][0] != float64(q)*10 {
				t.Fatalf("rank %d gathered %v", o.rank, o.rows)
			}
		}
	}

	// Abort path: rank 1 parks in the barrier alone, then the check
	// trips and it must unwind with the cause.
	done := make(chan error, 1)
	go func() { done <- eps[1].Barrier() }()
	time.Sleep(5 * time.Millisecond)
	tripped.Store(true)
	select {
	case err := <-done:
		if !errors.Is(err, cause) {
			t.Fatalf("aborted barrier error = %v, want wrapped cause", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("barrier did not unwind on check trip")
	}
	// The other ranks' endpoints also fail fast now.
	if err := eps[0].Send(1, 5, nil); !errors.Is(err, cause) {
		t.Fatalf("supervised send after trip = %v, want cause", err)
	}
}

// Supervision passes user traffic through unchanged and rejects tags in
// its reserved range.
func TestSupervisedStatsAndTagGuard(t *testing.T) {
	f := NewFabric(2)
	defer f.Close()
	eps := f.Endpoints()
	s0 := WithSupervision(eps[0], nil, 0)
	s1 := WithSupervision(eps[1], nil, 0)
	go s0.Send(1, 6, []float64{1, 2})
	if got, err := s1.Recv(0, 6); err != nil || len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("supervised recv = %v, %v", got, err)
	}
	if err := s0.Send(1, supTagBase, nil); err == nil {
		t.Fatal("reserved tag accepted by supervised Send")
	}
	if _, err := s1.Recv(0, MaxUserTag); err == nil {
		t.Fatal("out-of-range tag accepted by supervised Recv")
	}
}

// A supervised deadline receive still honors the overall bound when the
// check never trips.
func TestSupervisedRecvDeadlineTimesOut(t *testing.T) {
	f := NewFabric(2)
	defer f.Close()
	eps := f.Endpoints()
	sc := WithSupervision(eps[1], func() error { return nil }, time.Millisecond)
	start := time.Now()
	_, err := sc.RecvDeadline(0, 7, 20*time.Millisecond)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("deadline unbounded: %v", elapsed)
	}
}

// Every supervised entry point, not only Send and Recv, rejects negative
// tags and tags in the reserved collective range.
func TestReliableRejectsReservedTags(t *testing.T) {
	f := NewFabric(2)
	defer f.Close()
	sc := WithSupervision(f.Endpoint(0), func() error { return nil }, time.Millisecond)
	for _, tag := range []int{-1, supTagBase, MaxUserTag} {
		if _, err := sc.SendRecv(1, nil, 1, tag); err == nil {
			t.Errorf("SendRecv accepted tag %d", tag)
		}
		if _, err := sc.RecvDeadline(1, tag, time.Millisecond); err == nil {
			t.Errorf("RecvDeadline accepted tag %d", tag)
		}
	}
}

// TCP carries the reliable-delivery guarantee on its own: a supervised
// SendRecv across a TCP group round-trips with no retry layer.
func TestReliableOverTCP(t *testing.T) {
	raw, shutdown, err := NewTCPGroup(2)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown()
	eps := WithSupervisionAll(raw, func() error { return nil }, time.Millisecond)
	done := make(chan error, 1)
	go func() {
		got, err := eps[1].SendRecv(0, []float64{2}, 0, 9)
		if err == nil && (len(got) != 1 || got[0] != 1) {
			err = fmt.Errorf("rank 1 got %v", got)
		}
		done <- err
	}()
	got, err := eps[0].SendRecv(1, []float64{1}, 1, 9)
	if err != nil || len(got) != 1 || got[0] != 2 {
		t.Fatalf("rank 0 sendrecv %v %v", got, err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// With no check installed, supervision forwards straight to the
// transport: a fault-free round trip allocates no more than the raw
// endpoints do.
func TestReliableFaultFreeAllocsMatchRaw(t *testing.T) {
	payload := make([]float64, 4096)
	rawFab := NewFabric(2)
	defer rawFab.Close()
	raws := rawFab.Endpoints()
	supFab := NewFabric(2)
	defer supFab.Close()
	sups := WithSupervisionAll(supFab.Endpoints(), nil, 0)

	roundtrip := func(eps []Comm) func() {
		return func() {
			if err := eps[0].Send(1, 3, payload); err != nil {
				t.Fatal(err)
			}
			if _, err := eps[1].Recv(0, 3); err != nil {
				t.Fatal(err)
			}
		}
	}
	roundtrip(raws)() // warm both queues
	roundtrip(sups)()
	raw := testing.AllocsPerRun(100, roundtrip(raws))
	sup := testing.AllocsPerRun(100, roundtrip(sups))
	if sup > raw {
		t.Errorf("supervised fault-free roundtrip allocates %.1f/run, raw transport %.1f/run", sup, raw)
	}
}
