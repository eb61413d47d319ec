package parlbm

import (
	"fmt"
	"time"

	"microslip/internal/checkpoint"
)

// checkpointPhase runs one coordinated checkpoint round after
// `completed` phases. Two-phase commit: (1) every rank atomically
// persists its slab — distribution planes and remap ownership; the
// densities derive from the planes, so none are written — as a
// per-rank container file, streamed from the slab's own planes, so the
// round allocates nothing proportional to the slab; (2) the ranks synchronize with an AllGather
// of their ownership ranges, which doubles as the "all files atomically
// in place (rename), not fsynced" barrier, and rank 0 alone writes the
// COMMIT manifest assembled from the gathered ranges. A rank dying
// anywhere in the round leaves the phase directory uncommitted, so
// restore can only ever observe a consistent set.
func (w *worker) checkpointPhase(completed int) error {
	spec := w.opts.Checkpoint
	t0 := time.Now()
	defer func() {
		w.res.Breakdown.Checkpoint += time.Since(t0).Seconds()
	}()

	start, count := w.f[0].Start, w.f[0].Count()
	nc := len(w.f)
	rs := &checkpoint.RankState{
		Phase: completed, Rank: w.rank, Start: start,
		Planes: make([][][]float64, nc),
	}
	for c := 0; c < nc; c++ {
		rs.Planes[c] = w.f[c].Planes
	}
	if err := checkpoint.SaveRank(spec.Dir, rs); err != nil {
		return err
	}

	all, err := w.c.AllGather([]float64{float64(start), float64(count)})
	if err != nil {
		return fmt.Errorf("commit barrier: %w", err)
	}
	if w.rank == 0 {
		m := &checkpoint.Manifest{
			Phase: completed, NX: w.p.NX, NComp: nc,
			PlaneSize: w.f[0].PlaneSize(), Params: w.p,
			Ranks: make([]checkpoint.RankRange, len(all)),
		}
		for r, data := range all {
			if len(data) != 2 {
				return fmt.Errorf("commit barrier: %d values from rank %d", len(data), r)
			}
			m.Ranks[r] = checkpoint.RankRange{Rank: r, Start: int(data[0]), Count: int(data[1])}
		}
		if err := checkpoint.Commit(spec.Dir, m); err != nil {
			return err
		}
		keep := spec.Keep
		if keep < 1 {
			keep = 2
		}
		if err := checkpoint.Prune(spec.Dir, keep); err != nil {
			return err
		}
	}
	w.res.Checkpoints++
	return nil
}
