package comm

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"math"
	"runtime"
	"testing"
)

// encodeFrames returns the bytes the TCP sender writes for msgs, in
// order.
func encodeFrames(t testing.TB, msgs ...message) []byte {
	t.Helper()
	var buf bytes.Buffer
	c := &tcpComm{rank: 0, size: 2, peers: []*tcpPeer{nil, {w: bufio.NewWriter(&buf)}}}
	for _, m := range msgs {
		if err := c.send(1, m.tag, m.data); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// header returns a bare frame header declaring count values.
func header(tag, count int64) []byte {
	var hdr [16]byte
	binary.LittleEndian.PutUint64(hdr[0:], uint64(tag))
	binary.LittleEndian.PutUint64(hdr[8:], uint64(count))
	return hdr[:]
}

// readFrames runs one rank's readLoop over stream until it ends and
// returns the frames the inbox received. The inbox must be closed.
func readFrames(t testing.TB, stream []byte) []message {
	t.Helper()
	c := &tcpComm{rank: 0, size: 2, inbox: []*mailbox{nil, newMailbox()}}
	c.readLoop(1, bytes.NewReader(stream))
	box := c.inbox[1]
	if !box.closed {
		t.Fatal("readLoop returned with the inbox open")
	}
	return box.queue
}

// namedStream is one readLoop input.
type namedStream struct {
	name   string
	stream []byte
}

// readLoopStreams are the streams the test checks and the fuzzer
// starts from: the good frames, the same followed by a negative count,
// the same followed by a 2^40-value header with a 24-byte body, and an
// empty frame.
func readLoopStreams(t testing.TB, good []message) []namedStream {
	enc := encodeFrames(t, good...)
	short := encodeFrames(t, message{tag: 3, data: []float64{1, 2, 3}})[16:]
	return []namedStream{
		{"good", enc},
		{"negative", append(append([]byte(nil), enc...), header(5, -1)...)},
		{"huge short", append(append(append([]byte(nil), enc...), header(5, 1<<40)...), short...)},
		{"empty frame", encodeFrames(t, message{tag: 0, data: []float64{}})},
	}
}

// A bad header ends the peer's stream instead of the process: a
// negative count closes the inbox, and a count of 2^40 values with a
// 24-byte body allocates what arrived, not 8 TiB. Frames ahead of the
// bad one are delivered exactly as encoded.
func TestTCPReadLoopBadHeaders(t *testing.T) {
	long := make([]float64, frameChunk+5) // read in two chunks
	for i := range long {
		long[i] = float64(i) - 0.5
	}
	good := []message{
		{tag: 7, data: []float64{1.5, math.Inf(-1), math.Float64frombits(0x7ff8000000000001)}},
		{tag: 1 << 40, data: long},
	}
	for _, s := range readLoopStreams(t, good)[:3] {
		t.Run(s.name, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			got := readFrames(t, s.stream)
			runtime.ReadMemStats(&after)
			if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 4<<20 {
				t.Errorf("readLoop allocated %d bytes for a %d-byte stream", alloc, len(s.stream))
			}
			if len(got) != len(good) {
				t.Fatalf("inbox holds %d frames, want %d", len(got), len(good))
			}
			for i, m := range got {
				if m.tag != good[i].tag || len(m.data) != len(good[i].data) {
					t.Fatalf("frame %d: tag %d len %d, want tag %d len %d", i, m.tag, len(m.data), good[i].tag, len(good[i].data))
				}
				for k, v := range m.data {
					if math.Float64bits(v) != math.Float64bits(good[i].data[k]) {
						t.Fatalf("frame %d value %d: %x, want %x", i, k, math.Float64bits(v), math.Float64bits(good[i].data[k]))
					}
				}
			}
		})
	}
}

// FuzzTCPReadLoop feeds readLoop arbitrary streams. It must return
// without panicking, leave the inbox closed, and deliver only frames
// that re-encode to a prefix of the stream: nothing is invented,
// reordered or cut short.
func FuzzTCPReadLoop(f *testing.F) {
	good := []message{{tag: 7, data: []float64{1.5, math.Inf(-1)}}, {tag: 1 << 40, data: []float64{-0.5}}}
	for _, s := range readLoopStreams(f, good) {
		f.Add(s.stream)
	}
	f.Fuzz(func(t *testing.T, stream []byte) {
		got := readFrames(t, stream)
		enc := encodeFrames(t, got...)
		if !bytes.HasPrefix(stream, enc) {
			t.Fatalf("%d delivered frames do not re-encode to a prefix of the stream", len(got))
		}
	})
}
