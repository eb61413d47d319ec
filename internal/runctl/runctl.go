// Package runctl is the run-supervision substrate of the solver stack:
// cooperative cancellation, wall-clock budgets, and panic containment
// for long multi-step runs. It depends only on the standard library so
// every layer — the intra-node band schedulers in package lbm, the
// distributed pipeline in package parlbm, the comm transports — can
// share one vocabulary of abort causes without import cycles.
//
// The model distinguishes two severities:
//
//   - soft causes (a canceled context, an exhausted wall-clock budget)
//     ask the run to stop at the next safe boundary. Distributed ranks
//     use the Supervisor's stop-phase agreement to pick one common
//     boundary, keep exchanging halos until every rank reaches it, and
//     write a coordinated checkpoint there — so an interrupted run is
//     resumable bit-identically.
//
//   - hard causes (a worker panic, an unrecoverable rank failure) trip
//     the abort immediately. A banding skips its remaining wake and is
//     rebuilt; a distributed group's watcher tears its transport down,
//     so ranks blocked in receives fail instead of hanging. No
//     coordination is attempted and the in-memory state is not trusted
//     afterwards.
package runctl

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// ErrCanceled marks a run stopped because its context was canceled.
var ErrCanceled = errors.New("runctl: run canceled")

// ErrWallLimit marks a run stopped because its wall-clock budget
// expired.
var ErrWallLimit = errors.New("runctl: wall-clock limit exceeded")

// ErrPanic marks a run aborted by a recovered worker panic; every
// PanicError wraps it.
var ErrPanic = errors.New("runctl: worker panicked")

// ErrShutdown is the conventional cancellation cause for a host
// process draining on SIGTERM: supervised runs observe it through
// their context (wrapped in ErrCanceled), and job-level callers use it
// to distinguish a server-initiated interrupt — checkpoint and mark
// resumable — from a client cancellation.
var ErrShutdown = errors.New("runctl: shutting down")

// IsInterrupt reports whether err is an orderly interruption — a
// cancellation or wall-limit stop — as opposed to a genuine failure.
// Group runners use it to skip the hard transport teardown for ranks
// that stopped on purpose.
func IsInterrupt(err error) bool {
	return errors.Is(err, ErrCanceled) || errors.Is(err, ErrWallLimit)
}

// PanicError is a worker panic recovered into a value: the goroutine's
// identity (a parlbm rank, an lbm band, or both -1 sides unused), the
// panic value, and the stack captured at the recovery site.
type PanicError struct {
	// Rank is the distributed rank whose goroutine panicked, -1 for an
	// intra-node worker.
	Rank int
	// Band is the intra-node band worker that panicked, -1 for a
	// rank-level panic.
	Band int
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack, captured inside the
	// recovering defer (so it includes the panic origin frames).
	Stack []byte
}

func (e *PanicError) Error() string {
	switch {
	case e.Rank >= 0 && e.Band >= 0:
		return fmt.Sprintf("runctl: panic in rank %d band %d: %v", e.Rank, e.Band, e.Value)
	case e.Rank >= 0:
		return fmt.Sprintf("runctl: panic in rank %d: %v", e.Rank, e.Value)
	case e.Band >= 0:
		return fmt.Sprintf("runctl: panic in band %d: %v", e.Band, e.Value)
	}
	return fmt.Sprintf("runctl: worker panic: %v", e.Value)
}

func (e *PanicError) Unwrap() error { return ErrPanic }

// Abort is a single-shot abort flag: the first Trip stores the cause
// and closes the Done channel; later trips are ignored. Workers select
// on Done alongside their normal blocking points so a tripped abort
// unwinds every party instead of only the one that observed the cause.
// All methods are safe for concurrent use and nil-tolerant (a nil Abort
// never trips and exposes a nil — never ready — Done channel).
type Abort struct {
	ch    chan struct{}
	once  sync.Once
	cause atomic.Value // error
}

// NewAbort returns a fresh, untripped abort flag.
func NewAbort() *Abort {
	return &Abort{ch: make(chan struct{})}
}

// Trip records the cause (first wins) and releases Done.
func (a *Abort) Trip(err error) {
	if a == nil || err == nil {
		return
	}
	a.once.Do(func() {
		a.cause.Store(err)
		close(a.ch)
	})
}

// Done returns the channel closed by the first Trip; nil (never ready)
// on a nil Abort.
func (a *Abort) Done() <-chan struct{} {
	if a == nil {
		return nil
	}
	return a.ch
}

// Err returns the tripping cause, or nil while untripped.
func (a *Abort) Err() error {
	if a == nil {
		return nil
	}
	if err, ok := a.cause.Load().(error); ok {
		return err
	}
	return nil
}

// noStop is the stop-phase sentinel meaning "no stop agreed".
const noStop = math.MaxInt64

// Supervisor is one run's shared supervision state. A group runner
// creates one per run and every rank goroutine of the group shares it:
// the stop-phase agreement below is only sound when all members consult
// the same instance. All methods are safe for concurrent use and
// nil-tolerant, so unsupervised call sites simply pass nil.
type Supervisor struct {
	// PollInterval is how often a distributed group's watcher re-checks
	// HardErr, so it bounds how long past Grace a stalled orderly stop
	// keeps its ranks blocked. Set before the run starts; the
	// constructor default is 25ms.
	PollInterval time.Duration
	// Grace is how long after a soft cause first fires before it
	// escalates to a hard abort (the safety net for a group whose
	// orderly stop agreement cannot make progress). Set before the run
	// starts; the constructor default is 30s.
	Grace time.Duration

	ctx      context.Context
	deadline time.Time // zero = no wall limit

	abort     *Abort
	softOnce  sync.Once
	softCause atomic.Value // error
	softAt    atomic.Int64 // unix nanos of first soft observation
	stopPhase atomic.Int64
}

// NewSupervisor builds a supervisor from a context (nil means
// background) and a wall-clock budget (0 means unlimited), both counted
// from now.
func NewSupervisor(ctx context.Context, wallLimit time.Duration) *Supervisor {
	s := &Supervisor{
		PollInterval: 25 * time.Millisecond,
		Grace:        30 * time.Second,
		ctx:          ctx,
		abort:        NewAbort(),
	}
	if wallLimit > 0 {
		s.deadline = time.Now().Add(wallLimit)
	}
	s.stopPhase.Store(noStop)
	return s
}

// Poll returns the watcher's poll interval (the constructor default
// when unset or on a nil supervisor).
func (s *Supervisor) Poll() time.Duration {
	if s == nil || s.PollInterval <= 0 {
		return 25 * time.Millisecond
	}
	return s.PollInterval
}

// Trip records a hard abort cause (a panic, an unrecoverable failure);
// the first cause wins.
func (s *Supervisor) Trip(err error) {
	if s == nil {
		return
	}
	s.abort.Trip(err)
}

// Done returns the hard-abort channel (nil — never ready — on a nil
// supervisor).
func (s *Supervisor) Done() <-chan struct{} {
	if s == nil {
		return nil
	}
	return s.abort.Done()
}

// softErr evaluates the soft sources — context, wall clock — and
// latches the first cause observed so every later call (on any
// goroutine) reports the same cause and first-observation time.
func (s *Supervisor) softErr() error {
	if err, ok := s.softCause.Load().(error); ok {
		return err
	}
	var cause error
	if s.ctx != nil && s.ctx.Err() != nil {
		cause = fmt.Errorf("%w: %w", ErrCanceled, context.Cause(s.ctx))
	} else if !s.deadline.IsZero() && !time.Now().Before(s.deadline) {
		cause = ErrWallLimit
	}
	if cause == nil {
		return nil
	}
	s.softOnce.Do(func() {
		s.softCause.Store(cause)
		s.softAt.Store(time.Now().UnixNano())
	})
	// Re-load: a concurrent caller may have latched first.
	if err, ok := s.softCause.Load().(error); ok {
		return err
	}
	return cause
}

// Err returns the current stop cause of any severity: a hard trip, a
// canceled context (wrapping ErrCanceled), or an expired wall budget
// (wrapping ErrWallLimit). Multi-step loops check it at step
// boundaries. Nil on a nil supervisor.
func (s *Supervisor) Err() error {
	if s == nil {
		return nil
	}
	if err := s.abort.Err(); err != nil {
		return err
	}
	return s.softErr()
}

// HardErr returns only causes that must fail blocking operations right
// now: a hard trip always, a soft cause once it has been pending longer
// than Grace (the orderly stop agreement has stalled). Distributed
// ranks check it at every phase, and a group's watcher polls it to
// decide when to tear the transport down.
func (s *Supervisor) HardErr() error {
	if s == nil {
		return nil
	}
	if err := s.abort.Err(); err != nil {
		return err
	}
	if err := s.softErr(); err != nil {
		grace := s.Grace
		if grace <= 0 {
			grace = 30 * time.Second
		}
		if at := s.softAt.Load(); at != 0 && time.Since(time.Unix(0, at)) > grace {
			return fmt.Errorf("runctl: orderly stop overran its %v grace: %w", grace, err)
		}
	}
	return nil
}

// ProposeStop offers `phase` as the group's common stop boundary; the
// lowest proposal wins. Callers must propose a phase no rank can have
// passed yet (parlbm adds the group size to the proposer's own
// boundary, which provably exceeds the ring's phase skew).
func (s *Supervisor) ProposeStop(phase int) {
	if s == nil {
		return
	}
	p := int64(phase)
	for {
		cur := s.stopPhase.Load()
		if cur <= p {
			return
		}
		if s.stopPhase.CompareAndSwap(cur, p) {
			return
		}
	}
}

// StopPhase returns the agreed stop boundary, or a value larger than
// any phase count when none is agreed (also on a nil supervisor).
func (s *Supervisor) StopPhase() int {
	if s == nil {
		return math.MaxInt32
	}
	p := s.stopPhase.Load()
	if p >= int64(math.MaxInt32) {
		return math.MaxInt32
	}
	return int(p)
}
