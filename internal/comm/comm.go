// Package comm is the message-passing substrate that replaces MPI for
// the parallel LBM solver. It offers the small MPI subset the paper's
// code needs — tagged point-to-point send/receive, barrier, and
// allgather — over two interchangeable transports:
//
//   - an in-process transport (one goroutine per rank, channel-backed
//     mailboxes), used by tests and single-machine runs;
//   - a TCP loopback transport (package file tcp.go), which exercises a
//     real network stack for cluster-like runs.
//
// Semantics follow MPI: messages between a (sender, receiver) pair are
// non-overtaking per tag, sends are buffered (never deadlock), and
// receives block until a matching message arrives. There is no
// per-operation deadline: a group aborts the MPI way, by tearing its
// transport down (Fabric.Close, the TCP group's shutdown), which fails
// every pending and later receive with ErrClosed.
package comm

import (
	"errors"
	"fmt"
	"sync"
)

// ErrClosed is returned by operations on a closed communicator.
var ErrClosed = errors.New("comm: communicator closed")

// Comm is one rank's endpoint of a communicator group.
type Comm interface {
	// Rank returns this endpoint's rank in [0, Size).
	Rank() int
	// Size returns the number of ranks in the group.
	Size() int
	// Send delivers data to rank `to` under tag. The data is copied;
	// the caller may reuse the slice immediately. Tags must be >= 0.
	Send(to, tag int, data []float64) error
	// Recv blocks until a message with the given tag arrives from rank
	// `from` and returns its payload.
	Recv(from, tag int) ([]float64, error)
	// SendRecv sends to `to` and receives from `from` under one tag,
	// the per-phase neighbor exchange pattern of the LBM code.
	SendRecv(to int, send []float64, from, tag int) ([]float64, error)
	// Barrier blocks until every rank has entered the barrier.
	Barrier() error
	// AllGather collects each rank's contribution and returns the
	// per-rank slice, indexed by rank, identical on every rank.
	AllGather(local []float64) ([][]float64, error)
	// Close releases the endpoint; pending receivers get ErrClosed.
	Close() error
}

// Reserved internal tags (user tags must be >= 0).
const (
	tagBarrierArrive  = -1
	tagBarrierRelease = -2
	tagGatherUp       = -3
	tagGatherDown     = -4
)

type message struct {
	tag  int
	data []float64
}

// mailbox holds messages from one sender to one receiver.
type mailbox struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queue  []message
	closed bool
}

func newMailbox() *mailbox {
	m := &mailbox{}
	m.cond = sync.NewCond(&m.mu)
	return m
}

func (m *mailbox) put(tag int, data []float64) error {
	cp := make([]float64, len(data))
	copy(cp, data)
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrClosed
	}
	m.queue = append(m.queue, message{tag: tag, data: cp})
	m.cond.Broadcast()
	return nil
}

// take removes and returns the first queued message with the given tag,
// blocking until one arrives. Messages with the same tag are delivered
// in send order (non-overtaking).
func (m *mailbox) take(tag int) ([]float64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for {
		for i, msg := range m.queue {
			if msg.tag == tag {
				m.queue = append(m.queue[:i], m.queue[i+1:]...)
				return msg.data, nil
			}
		}
		if m.closed {
			return nil, ErrClosed
		}
		m.cond.Wait()
	}
}

func (m *mailbox) close() {
	m.mu.Lock()
	m.closed = true
	m.cond.Broadcast()
	m.mu.Unlock()
}

// Fabric is the in-process transport: a size x size matrix of mailboxes.
type Fabric struct {
	size  int
	boxes [][]*mailbox // boxes[from][to]
}

// NewFabric creates an in-process communicator group of n ranks.
func NewFabric(n int) *Fabric {
	if n < 1 {
		panic(fmt.Sprintf("comm: invalid group size %d", n))
	}
	f := &Fabric{size: n, boxes: make([][]*mailbox, n)}
	for i := range f.boxes {
		f.boxes[i] = make([]*mailbox, n)
		for j := range f.boxes[i] {
			f.boxes[i][j] = newMailbox()
		}
	}
	return f
}

// Endpoint returns rank r's Comm.
func (f *Fabric) Endpoint(r int) Comm {
	if r < 0 || r >= f.size {
		panic(fmt.Sprintf("comm: rank %d out of range [0,%d)", r, f.size))
	}
	return &chanComm{fabric: f, rank: r}
}

// Endpoints returns all ranks' endpoints, indexed by rank.
func (f *Fabric) Endpoints() []Comm {
	eps := make([]Comm, f.size)
	for i := range eps {
		eps[i] = f.Endpoint(i)
	}
	return eps
}

// Close closes every mailbox in the fabric.
func (f *Fabric) Close() {
	for _, row := range f.boxes {
		for _, b := range row {
			b.close()
		}
	}
}

type chanComm struct {
	fabric *Fabric
	rank   int
}

func (c *chanComm) Rank() int { return c.rank }
func (c *chanComm) Size() int { return c.fabric.size }

func (c *chanComm) checkPeer(r int) error {
	if r < 0 || r >= c.fabric.size {
		return fmt.Errorf("comm: peer rank %d out of range [0,%d)", r, c.fabric.size)
	}
	return nil
}

func (c *chanComm) Send(to, tag int, data []float64) error {
	if err := c.checkPeer(to); err != nil {
		return err
	}
	if tag < 0 {
		return fmt.Errorf("comm: user tag %d must be >= 0", tag)
	}
	return c.send(to, tag, data)
}

func (c *chanComm) send(to, tag int, data []float64) error {
	return c.fabric.boxes[c.rank][to].put(tag, data)
}

func (c *chanComm) Recv(from, tag int) ([]float64, error) {
	if err := c.checkPeer(from); err != nil {
		return nil, err
	}
	if tag < 0 {
		return nil, fmt.Errorf("comm: user tag %d must be >= 0", tag)
	}
	return c.recv(from, tag)
}

func (c *chanComm) recv(from, tag int) ([]float64, error) {
	return c.fabric.boxes[from][c.rank].take(tag)
}

func (c *chanComm) SendRecv(to int, send []float64, from, tag int) ([]float64, error) {
	if err := c.Send(to, tag, send); err != nil {
		return nil, err
	}
	return c.Recv(from, tag)
}

func (c *chanComm) Close() error {
	// Individual endpoints of the in-process fabric share mailboxes;
	// closing the whole fabric is the owner's job.
	return nil
}

// Barrier and AllGather are implemented over point-to-point messages so
// both transports share them.

func (c *chanComm) Barrier() error { return barrier(c) }

func (c *chanComm) AllGather(local []float64) ([][]float64, error) {
	return allGather(c, local)
}

// rawComm is the transport-internal interface: like Comm but allowing
// reserved (negative) tags.
type rawComm interface {
	Rank() int
	Size() int
	send(to, tag int, data []float64) error
	recv(from, tag int) ([]float64, error)
}

func barrier(c rawComm) error {
	if c.Size() == 1 {
		return nil
	}
	if c.Rank() == 0 {
		for r := 1; r < c.Size(); r++ {
			if _, err := c.recv(r, tagBarrierArrive); err != nil {
				return err
			}
		}
		for r := 1; r < c.Size(); r++ {
			if err := c.send(r, tagBarrierRelease, nil); err != nil {
				return err
			}
		}
		return nil
	}
	if err := c.send(0, tagBarrierArrive, nil); err != nil {
		return err
	}
	_, err := c.recv(0, tagBarrierRelease)
	return err
}

func allGather(c rawComm, local []float64) ([][]float64, error) {
	size := c.Size()
	out := make([][]float64, size)
	if c.Rank() == 0 {
		out[0] = append([]float64(nil), local...)
		for r := 1; r < size; r++ {
			data, err := c.recv(r, tagGatherUp)
			if err != nil {
				return nil, err
			}
			out[r] = data
		}
		for r := 1; r < size; r++ {
			for q := 0; q < size; q++ {
				if err := c.send(r, tagGatherDown, out[q]); err != nil {
					return nil, err
				}
			}
		}
		return out, nil
	}
	if err := c.send(0, tagGatherUp, local); err != nil {
		return nil, err
	}
	for q := 0; q < size; q++ {
		data, err := c.recv(0, tagGatherDown)
		if err != nil {
			return nil, err
		}
		out[q] = data
	}
	return out, nil
}
