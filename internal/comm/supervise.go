package comm

import (
	"errors"
	"fmt"
	"time"
)

// This file adds the supervision layer: a Comm wrapper whose blocking
// operations poll an external abort check, so a rank whose peer died —
// or whose run was told to abort hard — unwinds with the supervisor's
// cause instead of hanging in a receive forever. Group runners
// (parlbm.runGroup) wrap each transport endpoint with it:
//
//	supervised := comm.WithSupervision(fabric.Endpoint(r), sup.HardErr, sup.Poll())
//
// The check is consulted before every operation and between receive
// polls; a non-nil check error fails the operation immediately, wrapped
// with the operation's identity for attribution. Orderly (soft) stops
// deliberately do NOT surface here — a supervisor's HardErr stays nil
// while a group negotiates its stop boundary, so halo traffic keeps
// flowing until every rank has reached it.
//
// Polling needs per-op deadlines: when the wrapped transport implements
// DeadlineRecver — both built-in transports do — receives wake every
// poll interval to re-check. Without the capability the wrapper
// degrades to one check before a blocking receive, and abort liveness
// falls back to the group runner's transport teardown.
//
// Barrier and AllGather are re-expressed over the wrapper's own
// supervised point-to-point operations (using the reserved tags just
// below MaxUserTag), so collectives — the commit barrier of a
// coordinated checkpoint, say — unwind on abort exactly like halo
// receives do.

// MaxUserTag bounds the tags a supervised endpoint carries: application
// tags must stay below supTagBase.
const MaxUserTag = 1 << 30

// Supervised-collective tags: the supervision layer reserves
// [MaxUserTag-8, MaxUserTag) for its internal collectives; user tags
// must stay below supTagBase.
const supTagBase = MaxUserTag - 8

const (
	tagSBarrierArrive  = supTagBase + iota // worker -> root
	tagSBarrierRelease                     // root -> worker
	tagSGatherUp                           // worker contribution
	tagSGatherDown                         // root redistribution
)

// SupervisedComm is the abort-polling wrapper around a Comm. Like the
// raw endpoints it is owned by one rank goroutine.
type SupervisedComm struct {
	inner Comm
	check func() error
	poll  time.Duration
}

var _ Comm = (*SupervisedComm)(nil)
var _ DeadlineRecver = (*SupervisedComm)(nil)

// WithSupervision wraps inner so every blocking operation polls check
// (nil check disables polling; poll <= 0 means 25ms). All endpoints of
// a group must be wrapped alike — the supervised collectives use their
// own wire tags.
func WithSupervision(inner Comm, check func() error, poll time.Duration) *SupervisedComm {
	if poll <= 0 {
		poll = 25 * time.Millisecond
	}
	return &SupervisedComm{inner: inner, check: check, poll: poll}
}

// WithSupervisionAll wraps every endpoint of a group with the same
// check.
func WithSupervisionAll(eps []Comm, check func() error, poll time.Duration) []Comm {
	out := make([]Comm, len(eps))
	for i, ep := range eps {
		out[i] = WithSupervision(ep, check, poll)
	}
	return out
}

// Inner returns the wrapped communicator.
func (c *SupervisedComm) Inner() Comm { return c.inner }

func (c *SupervisedComm) Rank() int { return c.inner.Rank() }
func (c *SupervisedComm) Size() int { return c.inner.Size() }

func (c *SupervisedComm) checkAbort() error {
	if c.check == nil {
		return nil
	}
	return c.check()
}

func (c *SupervisedComm) Send(to, tag int, data []float64) error {
	if tag < 0 || tag >= supTagBase {
		return fmt.Errorf("comm: user tag %d out of [0,%d)", tag, supTagBase)
	}
	return c.send(to, tag, data)
}

func (c *SupervisedComm) send(to, tag int, data []float64) error {
	if err := c.checkAbort(); err != nil {
		return fmt.Errorf("comm: supervised send to %d tag %d: %w", to, tag, err)
	}
	return c.inner.Send(to, tag, data)
}

func (c *SupervisedComm) Recv(from, tag int) ([]float64, error) {
	if tag < 0 || tag >= supTagBase {
		return nil, fmt.Errorf("comm: user tag %d out of [0,%d)", tag, supTagBase)
	}
	return c.recv(from, tag)
}

func (c *SupervisedComm) recv(from, tag int) ([]float64, error) {
	dr, hasDeadline := c.inner.(DeadlineRecver)
	if c.check == nil || !hasDeadline {
		if err := c.checkAbort(); err != nil {
			return nil, fmt.Errorf("comm: supervised recv from %d tag %d: %w", from, tag, err)
		}
		return c.inner.Recv(from, tag)
	}
	for {
		if err := c.check(); err != nil {
			return nil, fmt.Errorf("comm: supervised recv from %d tag %d: %w", from, tag, err)
		}
		data, err := dr.RecvDeadline(from, tag, c.poll)
		if err == nil || !errors.Is(err, ErrTimeout) {
			return data, err
		}
	}
}

// RecvDeadline is the supervised receive bounded by an overall timeout;
// polling continues underneath so an abort still wins over the
// deadline.
func (c *SupervisedComm) RecvDeadline(from, tag int, timeout time.Duration) ([]float64, error) {
	if timeout <= 0 {
		return c.Recv(from, tag)
	}
	if tag < 0 || tag >= supTagBase {
		return nil, fmt.Errorf("comm: user tag %d out of [0,%d)", tag, supTagBase)
	}
	dr, hasDeadline := c.inner.(DeadlineRecver)
	if err := c.checkAbort(); err != nil {
		return nil, fmt.Errorf("comm: supervised recv from %d tag %d: %w", from, tag, err)
	}
	if !hasDeadline {
		return c.inner.Recv(from, tag)
	}
	deadline := time.Now().Add(timeout)
	for {
		remaining := time.Until(deadline)
		if remaining <= 0 {
			return nil, fmt.Errorf("comm: supervised recv from %d tag %d: %w", from, tag, ErrTimeout)
		}
		wait := c.poll
		if c.check == nil || remaining < wait {
			wait = remaining
		}
		data, err := dr.RecvDeadline(from, tag, wait)
		if err == nil || !errors.Is(err, ErrTimeout) {
			return data, err
		}
		if err := c.checkAbort(); err != nil {
			return nil, fmt.Errorf("comm: supervised recv from %d tag %d: %w", from, tag, err)
		}
	}
}

func (c *SupervisedComm) SendRecv(to int, send []float64, from, tag int) ([]float64, error) {
	if err := c.Send(to, tag, send); err != nil {
		return nil, err
	}
	return c.Recv(from, tag)
}

// Barrier is the flat coordinator barrier re-expressed over the
// supervised point-to-point operations, so a rank parked in it unwinds
// on abort like any supervised receive.
func (c *SupervisedComm) Barrier() error {
	if c.Size() == 1 {
		return c.checkAbort()
	}
	if c.Rank() == 0 {
		for r := 1; r < c.Size(); r++ {
			if _, err := c.recv(r, tagSBarrierArrive); err != nil {
				return err
			}
		}
		for r := 1; r < c.Size(); r++ {
			if err := c.send(r, tagSBarrierRelease, nil); err != nil {
				return err
			}
		}
		return nil
	}
	if err := c.send(0, tagSBarrierArrive, nil); err != nil {
		return err
	}
	_, err := c.recv(0, tagSBarrierRelease)
	return err
}

// AllGather mirrors the transports' gather-through-root shape over the
// supervised operations.
func (c *SupervisedComm) AllGather(local []float64) ([][]float64, error) {
	size := c.Size()
	out := make([][]float64, size)
	if size == 1 {
		if err := c.checkAbort(); err != nil {
			return nil, err
		}
		out[0] = append([]float64(nil), local...)
		return out, nil
	}
	if c.Rank() == 0 {
		out[0] = append([]float64(nil), local...)
		for r := 1; r < size; r++ {
			data, err := c.recv(r, tagSGatherUp)
			if err != nil {
				return nil, err
			}
			out[r] = data
		}
		for r := 1; r < size; r++ {
			for q := 0; q < size; q++ {
				if err := c.send(r, tagSGatherDown, out[q]); err != nil {
					return nil, err
				}
			}
		}
		return out, nil
	}
	if err := c.send(0, tagSGatherUp, local); err != nil {
		return nil, err
	}
	for q := 0; q < size; q++ {
		data, err := c.recv(0, tagSGatherDown)
		if err != nil {
			return nil, err
		}
		out[q] = data
	}
	return out, nil
}

func (c *SupervisedComm) Close() error { return c.inner.Close() }
