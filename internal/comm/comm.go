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
// receives block until a matching message arrives.
//
// Payload buffers are leased, not given away, so the steady-state
// exchange allocates nothing, as MPI receives into buffers the caller
// owns. Send copies its slice into a buffer the receiving mailbox
// recycles. A payload Recv returns under a user tag stays valid until
// the next Recv from the same peer under the same tag; after that the
// transport may reuse the buffer for a later message on any stream
// into this rank from that peer. Barrier and AllGather results are the
// caller's to keep. Each mailbox holds at most maxFree recycled buffers
// beside its leases, and drops them all on close.
//
// There is no per-operation deadline: a group aborts the MPI way, by
// tearing its transport down (Fabric.Close, the TCP group's shutdown),
// which fails every pending and later receive with ErrClosed.
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
	// `from` and returns its payload. The payload is leased: it stays
	// valid until the next Recv from `from` under the same tag, after
	// which the transport may overwrite it. Copy what must outlive that.
	Recv(from, tag int) ([]float64, error)
	// SendRecv sends to `to` and receives from `from` under one tag,
	// the per-phase neighbor exchange pattern of the LBM code. Its
	// payload is leased as Recv's is.
	SendRecv(to int, send []float64, from, tag int) ([]float64, error)
	// Barrier blocks until every rank has entered the barrier.
	Barrier() error
	// AllGather collects each rank's contribution and returns the
	// per-rank slice, indexed by rank, identical on every rank. The
	// slices are the caller's: no later receive reuses them.
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

// maxFree bounds the recycled buffers a mailbox keeps beside its
// leases: two for each of a neighbor pair's two frame streams, which
// keeps the exchange allocation-free with the sender up to a phase
// ahead. A migration or gather burst queues more; what the list cannot
// hold goes to the collector.
const maxFree = 4

// mailbox holds messages from one sender to one receiver, with the
// payload buffers it recycles between them: lent holds the buffer the
// last receive under each user tag handed out, free the buffers ready
// for the next put.
type mailbox struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queue  []message
	lent   []message
	free   [][]float64
	closed bool
}

func newMailbox() *mailbox {
	m := &mailbox{}
	m.cond = sync.NewCond(&m.mu)
	return m
}

// put queues a copy of data, made outside the lock into a recycled
// buffer when one fits.
func (m *mailbox) put(tag int, data []float64) error {
	m.mu.Lock()
	buf := m.reuse(len(data))
	m.mu.Unlock()
	if buf == nil {
		buf = make([]float64, 0, len(data))
	}
	buf = append(buf, data...)
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrClosed
	}
	m.queue = append(m.queue, message{tag: tag, data: buf})
	m.cond.Broadcast()
	return nil
}

// reuse removes and returns, emptied, the smallest free buffer that
// holds n values with at most half of it to spare, or nil. The caller
// holds m.mu.
func (m *mailbox) reuse(n int) []float64 {
	best := -1
	for i, b := range m.free {
		if c := cap(b); c >= n && c-n <= n && (best < 0 || c < cap(m.free[best])) {
			best = i
		}
	}
	if best < 0 {
		return nil
	}
	buf := m.free[best]
	last := len(m.free) - 1
	m.free[best] = m.free[last]
	m.free[last] = nil
	m.free = m.free[:last]
	return buf[:0]
}

// recycle makes buf free for a later put. A full list keeps its
// largest buffers; a closed mailbox keeps none. The caller holds m.mu.
func (m *mailbox) recycle(buf []float64) {
	if m.closed || cap(buf) == 0 {
		return
	}
	if len(m.free) < maxFree {
		m.free = append(m.free, buf)
		return
	}
	small := 0
	for i, b := range m.free {
		if cap(b) < cap(m.free[small]) {
			small = i
		}
	}
	if cap(buf) > cap(m.free[small]) {
		m.free[small] = buf
	}
}

// lend records data as the payload handed out under user tag and
// recycles the one it replaces. The caller holds m.mu.
func (m *mailbox) lend(tag int, data []float64) {
	if m.closed {
		return
	}
	for i := range m.lent {
		if m.lent[i].tag == tag {
			m.recycle(m.lent[i].data)
			m.lent[i].data = data
			return
		}
	}
	m.lent = append(m.lent, message{tag: tag, data: data})
}

// take removes and returns the first queued message with the given tag,
// blocking until one arrives. Messages with the same tag are delivered
// in send order (non-overtaking). A user tag's payload is lent (see the
// package doc); an internal tag's is given away, since collectives keep
// their results past the next receive.
func (m *mailbox) take(tag int) ([]float64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for {
		for i, msg := range m.queue {
			if msg.tag == tag {
				last := len(m.queue) - 1
				copy(m.queue[i:], m.queue[i+1:])
				m.queue[last] = message{}
				m.queue = m.queue[:last]
				if tag >= 0 {
					m.lend(tag, msg.data)
				}
				return msg.data, nil
			}
		}
		if m.closed {
			return nil, ErrClosed
		}
		m.cond.Wait()
	}
}

// close fails later puts and drops the recycled buffers; a receiver
// still holding a lease keeps its slice.
func (m *mailbox) close() {
	m.mu.Lock()
	m.closed = true
	m.lent = nil
	m.free = nil
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
