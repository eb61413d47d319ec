package comm

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"net"
	"sync"
)

// tcpComm is one rank's endpoint over real TCP connections (loopback or
// LAN). Wire format per message: int64 tag, int64 count, count float64s,
// all little-endian. One connection per peer pair; a reader goroutine
// demultiplexes incoming frames into per-sender mailboxes, so sends
// never deadlock as long as peers exist.
type tcpComm struct {
	rank, size int
	peers      []*tcpPeer // indexed by peer rank; peers[rank] == nil
	inbox      []*mailbox // indexed by sender rank
	selfBox    *mailbox
	closeOnce  sync.Once
	readers    sync.WaitGroup // live readLoop goroutines
}

type tcpPeer struct {
	conn net.Conn
	wmu  sync.Mutex
	w    *bufio.Writer
}

func (c *tcpComm) Rank() int { return c.rank }
func (c *tcpComm) Size() int { return c.size }

func (c *tcpComm) Send(to, tag int, data []float64) error {
	if tag < 0 {
		return fmt.Errorf("comm: user tag %d must be >= 0", tag)
	}
	return c.send(to, tag, data)
}

func (c *tcpComm) send(to, tag int, data []float64) error {
	if to < 0 || to >= c.size {
		return fmt.Errorf("comm: peer rank %d out of range [0,%d)", to, c.size)
	}
	if to == c.rank {
		return c.selfBox.put(tag, data)
	}
	p := c.peers[to]
	p.wmu.Lock()
	defer p.wmu.Unlock()
	var hdr [16]byte
	binary.LittleEndian.PutUint64(hdr[0:], uint64(int64(tag)))
	binary.LittleEndian.PutUint64(hdr[8:], uint64(int64(len(data))))
	if _, err := p.w.Write(hdr[:]); err != nil {
		return fmt.Errorf("comm: send to %d: %w", to, err)
	}
	var buf [8]byte
	for _, v := range data {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		if _, err := p.w.Write(buf[:]); err != nil {
			return fmt.Errorf("comm: send to %d: %w", to, err)
		}
	}
	if err := p.w.Flush(); err != nil {
		return fmt.Errorf("comm: send to %d: %w", to, err)
	}
	return nil
}

func (c *tcpComm) Recv(from, tag int) ([]float64, error) {
	if tag < 0 {
		return nil, fmt.Errorf("comm: user tag %d must be >= 0", tag)
	}
	return c.recv(from, tag)
}

func (c *tcpComm) recv(from, tag int) ([]float64, error) {
	if from < 0 || from >= c.size {
		return nil, fmt.Errorf("comm: peer rank %d out of range [0,%d)", from, c.size)
	}
	if from == c.rank {
		return c.selfBox.take(tag)
	}
	return c.inbox[from].take(tag)
}

func (c *tcpComm) SendRecv(to int, send []float64, from, tag int) ([]float64, error) {
	if err := c.Send(to, tag, send); err != nil {
		return nil, err
	}
	return c.Recv(from, tag)
}

func (c *tcpComm) Barrier() error { return barrier(c) }

func (c *tcpComm) AllGather(local []float64) ([][]float64, error) {
	return allGather(c, local)
}

func (c *tcpComm) Close() error {
	c.closeOnce.Do(func() {
		// Closing the connections unblocks every readLoop stuck in a
		// read; wait for them so no goroutine outlives the endpoint and
		// a teardown mid-SendRecv cannot race a late frame against the
		// mailbox shutdown below.
		for _, p := range c.peers {
			if p != nil {
				p.conn.Close()
			}
		}
		c.readers.Wait()
		for _, b := range c.inbox {
			if b != nil {
				b.close()
			}
		}
		c.selfBox.close()
	})
	return nil
}

// startReadLoop spawns readLoop registered with the readers group, so
// Close can wait for it.
func (c *tcpComm) startReadLoop(from int, r io.Reader) {
	c.readers.Add(1)
	go func() {
		defer c.readers.Done()
		c.readLoop(from, r)
	}()
}

// frameChunk is the number of values readLoop reads per io.ReadFull.
// A frame's slice grows chunk by chunk as its bytes arrive, so the
// count a header declares never sizes an allocation on its own.
const frameChunk = 4096

// readLoop demultiplexes frames from peer `from` into the inbox. A
// short read or a negative count closes the inbox: the peer is gone or
// its stream is not a frame stream, and the rank's receives fail.
func (c *tcpComm) readLoop(from int, r io.Reader) {
	br := bufio.NewReaderSize(r, 1<<16)
	box := c.inbox[from]
	var hdr [16]byte
	buf := make([]byte, 8*frameChunk)
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			box.close()
			return
		}
		tag := int(int64(binary.LittleEndian.Uint64(hdr[0:])))
		count := int64(binary.LittleEndian.Uint64(hdr[8:]))
		if count < 0 {
			box.close()
			return
		}
		data := make([]float64, 0, min(count, frameChunk))
		for left := count; left > 0; {
			b := buf[:8*min(left, frameChunk)]
			if _, err := io.ReadFull(br, b); err != nil {
				box.close()
				return
			}
			for k := 0; k < len(b); k += 8 {
				data = append(data, math.Float64frombits(binary.LittleEndian.Uint64(b[k:])))
			}
			left -= int64(len(b) / 8)
		}
		// put bypasses the copy in mailbox.put by design; the slice is
		// freshly allocated here, so hand it over directly.
		box.mu.Lock()
		if box.closed {
			box.mu.Unlock()
			return
		}
		box.queue = append(box.queue, message{tag: tag, data: data})
		box.cond.Broadcast()
		box.mu.Unlock()
	}
}

// NewTCPGroup builds an n-rank communicator over TCP loopback: n
// listeners on ephemeral ports, a full connection mesh, and returns the
// endpoints indexed by rank plus a shutdown function. It exercises the
// real network stack end to end while remaining a single-process API.
func NewTCPGroup(n int) ([]Comm, func(), error) {
	if n < 1 {
		return nil, nil, fmt.Errorf("comm: invalid group size %d", n)
	}
	comms := make([]*tcpComm, n)
	listeners := make([]net.Listener, n)
	for r := 0; r < n; r++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range listeners[:r] {
				l.Close()
			}
			return nil, nil, fmt.Errorf("comm: listen: %w", err)
		}
		listeners[r] = ln
		comms[r] = &tcpComm{
			rank: r, size: n,
			peers:   make([]*tcpPeer, n),
			inbox:   make([]*mailbox, n),
			selfBox: newMailbox(),
		}
		for q := 0; q < n; q++ {
			if q != r {
				comms[r].inbox[q] = newMailbox()
			}
		}
	}

	var wg sync.WaitGroup
	errs := make(chan error, 2*n*n)
	// abort tears down the listeners on the first setup error, so
	// accept goroutines still blocked in Accept fail fast instead of
	// hanging wg.Wait forever.
	var abortOnce sync.Once
	abort := func() {
		abortOnce.Do(func() {
			for _, ln := range listeners {
				ln.Close()
			}
		})
	}
	fail := func(err error) {
		errs <- err
		abort()
	}
	// Accept side: rank r accepts connections from all higher ranks.
	for r := 0; r < n; r++ {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			for q := r + 1; q < n; q++ {
				conn, err := listeners[r].Accept()
				if err != nil {
					fail(err)
					return
				}
				// Handshake: the dialer announces its rank.
				var buf [8]byte
				if _, err := io.ReadFull(conn, buf[:]); err != nil {
					fail(err)
					return
				}
				peer := int(int64(binary.LittleEndian.Uint64(buf[:])))
				if peer <= r || peer >= n {
					fail(fmt.Errorf("comm: bad handshake rank %d at rank %d", peer, r))
					return
				}
				comms[r].peers[peer] = &tcpPeer{conn: conn, w: bufio.NewWriterSize(conn, 1<<16)}
				comms[r].startReadLoop(peer, conn)
			}
		}()
	}
	// Dial side: rank q dials all lower ranks.
	for q := 1; q < n; q++ {
		q := q
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < q; r++ {
				conn, err := net.Dial("tcp", listeners[r].Addr().String())
				if err != nil {
					fail(err)
					return
				}
				var buf [8]byte
				binary.LittleEndian.PutUint64(buf[:], uint64(int64(q)))
				if _, err := conn.Write(buf[:]); err != nil {
					fail(err)
					return
				}
				comms[q].peers[r] = &tcpPeer{conn: conn, w: bufio.NewWriterSize(conn, 1<<16)}
				comms[q].startReadLoop(r, conn)
			}
		}()
	}
	wg.Wait()
	abort()
	select {
	case err := <-errs:
		for _, c := range comms {
			c.Close()
		}
		return nil, nil, err
	default:
	}
	out := make([]Comm, n)
	for i, c := range comms {
		out[i] = c
	}
	shutdown := func() {
		for _, c := range comms {
			c.Close()
		}
	}
	return out, shutdown, nil
}
