package parlbm

import (
	"strings"
	"testing"

	"microslip/internal/comm"
	"microslip/internal/lbm"
)

// sumHalo aggregates the per-phase frame traffic over all ranks.
func sumHalo(results []*Result) (sentBytes, sentMsgs int64) {
	for _, r := range results {
		h := r.Comm.Bytes.Halo()
		sentBytes += h.SentBytes
		sentMsgs += h.SentMsgs
	}
	return
}

// Every rank sends exactly one frame per neighbor per phase — the kind
// header, the edge plane, and the far densities: 1 + nc*cells*(19+1)
// floats — and nothing else on the halo class, on every group size the
// ring allows, including two ranks (both neighbors the same peer). All
// from the solver's own Result.Comm counters, so the accounting is
// itself under test: expected volumes are derived from the lattice
// constants, not re-measured.
func TestFrameBytesAndMessages(t *testing.T) {
	const nx, ny, nz, phases = 12, 10, 6, 5
	const nc, cells = 2, ny * nz
	for _, ranks := range []int{1, 2, 3} {
		_, results, err := RunParallel(waveParams(nx, ny, nz), ranks, Options{Phases: phases})
		if err != nil {
			t.Fatal(err)
		}
		bytes, msgs := sumHalo(results)
		wantMsgs := int64(ranks * phases * 2)
		if ranks == 1 {
			wantMsgs = 0 // a single rank's frames never touch the wire
		}
		if msgs != wantMsgs {
			t.Errorf("ranks=%d: %d frames sent, want %d", ranks, msgs, wantMsgs)
		}
		if want := wantMsgs * 8 * (1 + nc*cells*(19+1)); bytes != want {
			t.Errorf("ranks=%d: frame bytes %d, want %d", ranks, bytes, want)
		}
		// Sent and received volumes balance over the closed ring.
		var recv int64
		for _, r := range results {
			recv += r.Comm.Bytes.Halo().RecvBytes
		}
		if recv != bytes {
			t.Errorf("ranks=%d: %d bytes sent but %d received", ranks, bytes, recv)
		}
	}
}

// Malformed frames must surface as errors naming the mismatch, not as
// corrupted physics or panics.
func TestMalformedHaloAndFrameErrors(t *testing.T) {
	f := comm.NewFabric(2)
	defer f.Close()
	w := benchWorker(t, f.Endpoint(0), Options{})
	peer := f.Endpoint(1)

	sendBoth := func(msg []float64) {
		// The peer is both neighbors of rank 0 on a two-rank ring.
		if err := peer.Send(0, tagFrameR, msg); err != nil {
			t.Fatal(err)
		}
		if err := peer.Send(0, tagFrameL, msg); err != nil {
			t.Fatal(err)
		}
	}
	recv := func(msg []float64) error {
		sendBoth(msg)
		if err := w.postFrames(); err != nil {
			t.Fatal(err)
		}
		err := w.recvFrames()
		// Drain what the case left queued, so the next starts empty: the
		// second malformed message (recvFrames stops at the first) and
		// rank 0's own frames, which nobody reads.
		w.c.Recv(1, tagFrameL)
		peer.Recv(0, tagFrameL)
		peer.Recv(0, tagFrameR)
		return err
	}

	t.Run("empty frame", func(t *testing.T) {
		err := recv([]float64{})
		if err == nil || !strings.Contains(err.Error(), "frame size 0") {
			t.Fatalf("got %v, want frame size error", err)
		}
	})
	t.Run("unknown frame kind", func(t *testing.T) {
		msg := make([]float64, w.k.FrameLen())
		msg[0] = 42
		err := recv(msg)
		if err == nil || !strings.Contains(err.Error(), "unknown frame kind") {
			t.Fatalf("got %v, want unknown kind error", err)
		}
	})
	t.Run("truncated wide frame", func(t *testing.T) {
		err := recv([]float64{lbm.FrameKind, 1, 2, 3})
		if err == nil || !strings.Contains(err.Error(), "frame size 4") {
			t.Fatalf("got %v, want frame size error", err)
		}
	})

	// The streamed gather and per-plane migration check every message
	// they take off the wire.
	send := func(tag int, msgs ...[]float64) {
		for _, msg := range msgs {
			if err := peer.Send(0, tag, msg); err != nil {
				t.Fatal(err)
			}
		}
	}
	t.Run("bad gather header", func(t *testing.T) {
		for _, c := range []struct {
			name string
			hdr  []float64
		}{
			{"empty", []float64{}},
			{"one value", []float64{4}},
			{"three values", []float64{4, 1, 0}},
			{"negative start", []float64{-1, 2}},
			{"negative count", []float64{4, -1}},
			{"past the end", []float64{6, 4}},
		} {
			send(tagGather, c.hdr)
			if err := w.gather(); err == nil || !strings.Contains(err.Error(), "gather header") {
				t.Errorf("%s %v: got %v, want gather header error", c.name, c.hdr, err)
			}
		}
	})
	t.Run("gather plane of the wrong length", func(t *testing.T) {
		send(tagGather, []float64{4, 2}, make([]float64, 2*w.f[0].PlaneSize()), []float64{1, 2, 3})
		if err := w.gather(); err == nil || !strings.Contains(err.Error(), "gather plane 5 from 1 has 3 values") {
			t.Fatalf("got %v, want gather plane length error", err)
		}
	})
	t.Run("migration plane of the wrong length", func(t *testing.T) {
		// Two planes flow leftward from rank 1; the second is short.
		send(tagPlanesLeft, make([]float64, 2*w.f[0].PlaneSize()), []float64{1, 2, 3})
		if err := w.moveBoundary(1, -2); err == nil || !strings.Contains(err.Error(), "plane transfer size 3") {
			t.Fatalf("got %v, want plane transfer size error", err)
		}
	})
}
