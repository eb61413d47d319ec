package parlbm

import "fmt"

// A rank's frames are lbm's (see lbm.FrameKind): toward its left
// neighbor the pre-collision plane start of every component and the
// densities of plane start+1, toward its right neighbor plane end-1 and
// the densities of plane end-2 — exactly what a band of the sequential
// solver trades in memory.

// postFrames builds this phase's plane windows and sends its frame to
// each neighbor (a single rank keeps both, as its own neighbor).
func (w *worker) postFrames() error {
	count := w.f[0].Count()
	w.fWin = views(w.fWin, w.f)
	w.packL = w.k.PackFrame(w.sweep, w.packL, w.fWin[1], w.fWin[2])
	w.packR = w.k.PackFrame(w.sweep, w.packR, w.fWin[count], w.fWin[count-1])
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
		if err := w.k.ParseFrame(w.packR, ghostL, w.farL); err != nil {
			return err
		}
		return w.k.ParseFrame(w.packL, ghostR, w.farR)
	}
	left, right := w.neighbors()
	cls := &w.res.Breakdown.Bytes.Frame
	// The left neighbor's rightward frame is the left ghost.
	fromL, err := w.recvWire(left, tagFrameR, w.k.FrameLen(), "frame", &w.rawRecvL, cls)
	if err == nil {
		err = w.k.ParseFrame(fromL, ghostL, w.farL)
	}
	if err != nil {
		return fmt.Errorf("frame from rank %d: %w", left, err)
	}
	fromR, err := w.recvWire(right, tagFrameL, w.k.FrameLen(), "frame", &w.rawRecvR, cls)
	if err == nil {
		err = w.k.ParseFrame(fromR, ghostR, w.farR)
	}
	if err != nil {
		return fmt.Errorf("frame from rank %d: %w", right, err)
	}
	return nil
}

// sweepSlab runs the phase's fused sweep over the owned planes, in
// place, with the frames' ghosts on both sides.
func (w *worker) sweepSlab() {
	w.k.SweepFused(w.sweep, w.fWin, w.fWin, 1, len(w.fWin)-1, w.farL, w.farR)
}
