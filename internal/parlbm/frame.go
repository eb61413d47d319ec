package parlbm

import "fmt"

// A rank's frames are lbm's (see lbm.FrameKind): toward its left
// neighbor the pre-collision plane start of every component and the
// densities of plane start+1, toward its right neighbor plane end-1 and
// the densities of plane end-2 — built by the same lbm.SlabSweep a band
// of the sequential solver packs in memory.

// postFrames binds the slab step to this phase's planes, packs its
// frames and sends one to each neighbor (a single rank is its own
// neighbor and takes both as its ghosts at once).
func (w *worker) postFrames() error {
	w.slab.Bind(w.f[0].Count(), w.plane)
	toL, toR := w.slab.Pack()
	if w.size == 1 {
		// The frame sent rightward is the left ghost, and vice versa.
		if err := w.slab.Ghost(0, toR); err != nil {
			return err
		}
		return w.slab.Ghost(1, toL)
	}
	left, right := w.neighbors()
	cls := &w.res.Breakdown.Bytes.Frame
	if err := w.sendWire(left, tagFrameL, toL, &w.wireSendL, cls); err != nil {
		return err
	}
	return w.sendWire(right, tagFrameR, toR, &w.wireSendR, cls)
}

// recvFrames takes the neighbors' frames as the slab's ghosts, each
// parsed as it arrives. The ghosts are copies — frames off the wire, or
// a single rank's own frames, which never touch the wire — so the sweep
// may overwrite the owned planes in place.
func (w *worker) recvFrames() error {
	if w.size == 1 {
		return nil
	}
	left, right := w.neighbors()
	cls := &w.res.Breakdown.Bytes.Frame
	// The left neighbor's rightward frame is the left ghost.
	fromL, err := w.recvWire(left, tagFrameR, w.k.FrameLen(), "frame", &w.rawRecvL, cls)
	if err == nil {
		err = w.slab.Ghost(0, fromL)
	}
	if err != nil {
		return fmt.Errorf("frame from rank %d: %w", left, err)
	}
	fromR, err := w.recvWire(right, tagFrameL, w.k.FrameLen(), "frame", &w.rawRecvR, cls)
	if err == nil {
		err = w.slab.Ghost(1, fromR)
	}
	if err != nil {
		return fmt.Errorf("frame from rank %d: %w", right, err)
	}
	return nil
}
