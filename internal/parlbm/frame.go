package parlbm

import "fmt"

// frameKind heads every frame. A frame from a rank owning [start, end)
// carries, toward its left neighbor, the pre-collision plane start of
// every component and then the densities of plane start+1; toward its
// right neighbor, plane end-1 and the densities of plane end-2. That is
// everything the receiver's sweep needs beyond its own planes: the
// ghost plane itself (whose densities it recomputes) and the density
// plane behind it for the ghost's psi-gradient.
const frameKind = 1

// frameLen is the logical length of one frame.
func (w *worker) frameLen() int {
	return 1 + len(w.f)*(w.f[0].PlaneSize()+w.k.PlaneCells())
}

// packFrame fills buf with one frame — the kind header, the edge plane
// of every component, then the densities of the plane behind the edge,
// computed straight into the frame — reusing buf's capacity.
func (w *worker) packFrame(buf []float64, edge, far [][]float64) []float64 {
	nc, sz, cells := len(w.f), w.f[0].PlaneSize(), w.k.PlaneCells()
	need := w.frameLen()
	if cap(buf) < need {
		buf = make([]float64, need)
	}
	buf = buf[:need]
	buf[0] = frameKind
	for c := 0; c < nc; c++ {
		copy(buf[1+c*sz:1+(c+1)*sz], edge[c])
		w.farHdr[c] = buf[1+nc*sz+c*cells : 1+nc*sz+(c+1)*cells]
	}
	w.k.Densities(far, w.farHdr)
	return buf
}

// postFrames builds this phase's plane windows and sends its frame to
// each neighbor (a single rank keeps both, as its own neighbor).
func (w *worker) postFrames() error {
	count := w.f[0].Count()
	w.fWin = views(w.fWin, w.f)
	if w.opts.Checkpoint != nil {
		w.nWin = views(w.nWin, w.n)
	}
	w.packL = w.packFrame(w.packL, w.fWin[1], w.fWin[2])
	w.packR = w.packFrame(w.packR, w.fWin[count], w.fWin[count-1])
	if w.size == 1 {
		return nil
	}
	left, right := w.neighbors()
	cls := &w.res.Breakdown.Bytes.Frame
	if err := w.sendWire(left, tagFrameL, w.packL, &w.wireSendL, cls); err != nil {
		return err
	}
	return w.sendWire(right, tagFrameR, w.packR, &w.wireSendR, cls)
}

// recvFrames takes the neighbors' frames as the sweep's ghost planes
// (the first and last entries of fWin) and far densities (farL, farR).
// The ghosts are copies — frames off the wire, or a single rank's own
// frames, which never touch the wire — so the sweep may overwrite the
// owned planes in place.
func (w *worker) recvFrames() error {
	ghostL, ghostR := w.fWin[0], w.fWin[len(w.fWin)-1]
	if w.size == 1 {
		// The frame sent rightward is the left ghost, and vice versa.
		if err := w.parseFrame(w.packR, ghostL, w.farL); err != nil {
			return err
		}
		return w.parseFrame(w.packL, ghostR, w.farR)
	}
	left, right := w.neighbors()
	cls := &w.res.Breakdown.Bytes.Frame
	// The left neighbor's rightward frame is the left ghost.
	fromL, err := w.recvWire(left, tagFrameR, w.frameLen(), "frame", &w.rawRecvL, cls)
	if err == nil {
		err = w.parseFrame(fromL, ghostL, w.farL)
	}
	if err != nil {
		return fmt.Errorf("frame from rank %d: %w", left, err)
	}
	fromR, err := w.recvWire(right, tagFrameL, w.frameLen(), "frame", &w.rawRecvR, cls)
	if err == nil {
		err = w.parseFrame(fromR, ghostR, w.farR)
	}
	if err != nil {
		return fmt.Errorf("frame from rank %d: %w", right, err)
	}
	return nil
}

// sweepSlab runs the phase's fused sweep over the owned planes, in
// place, with the frames' ghosts on both sides; when checkpointing it
// keeps the densities it computes in w.n.
func (w *worker) sweepSlab() {
	var dens [][][]float64
	if w.opts.Checkpoint != nil {
		dens = w.nWin
	}
	w.k.SweepFused(w.sweep, w.fWin, w.fWin, 1, len(w.fWin)-1, w.farL, w.farR, dens)
}

// parseFrame checks a frame of the right length for its kind header
// and points the per-component ghost-plane and far-density headers into
// it.
func (w *worker) parseFrame(msg []float64, ghost, far [][]float64) error {
	if msg[0] != frameKind {
		return fmt.Errorf("unknown frame kind %v", msg[0])
	}
	nc, sz, cells := len(w.f), w.f[0].PlaneSize(), w.k.PlaneCells()
	for c := 0; c < nc; c++ {
		ghost[c] = msg[1+c*sz : 1+(c+1)*sz]
		far[c] = msg[1+nc*sz+c*cells : 1+nc*sz+(c+1)*cells]
	}
	return nil
}
