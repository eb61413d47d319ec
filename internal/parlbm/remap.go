package parlbm

import (
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"time"

	"microslip/internal/balance"
	"microslip/internal/comm"
	"microslip/internal/core"
	"microslip/internal/decomp"
	"microslip/internal/field"
	"microslip/internal/lbm"
	"microslip/internal/runctl"
)

// remap runs one distributed remapping round (lines 19-32 of the
// paper's pseudo-code): load-index exchange, decision, conflict
// resolution, and plane migration.
func (w *worker) remap() error {
	t0 := time.Now()
	defer func() {
		w.res.Breakdown.Remapping += time.Since(t0).Seconds()
	}()

	switch pol := w.opts.Policy.(type) {
	case nil, balance.NoRemap:
		return nil
	case balance.Filtered:
		return w.remapLocal(pol.Cfg)
	case balance.Conservative:
		return w.remapLocal(pol.Cfg)
	default:
		if pol.Global() {
			return w.remapGlobal(pol)
		}
		return fmt.Errorf("policy %q has no distributed implementation", pol.Name())
	}
}

// remapLocal is the distributed filtered/conservative protocol. Note
// the remapping topology is the *chain* (no wraparound): planes only
// move across subdomain boundaries, and ranks 0 and P-1 have one chain
// neighbor even though the frame exchange is a ring.
func (w *worker) remapLocal(cfg core.Config) error {
	planes := w.f[0].Count()
	predicted := w.pred.Predict() * float64(planes)
	hasLeft := w.rank > 0
	hasRight := w.rank < w.size-1
	info := []float64{float64(planes), predicted}
	ctl := &w.res.Breakdown.Bytes.Control

	// Round 1: exchange (plane count, predicted time) with chain
	// neighbors.
	if hasLeft {
		ctl.CountSend(8 * len(info))
		if err := w.c.Send(w.rank-1, tagLoadInfo, info); err != nil {
			return err
		}
	}
	if hasRight {
		ctl.CountSend(8 * len(info))
		if err := w.c.Send(w.rank+1, tagLoadInfo, info); err != nil {
			return err
		}
	}
	win := core.Window{
		HasLeft: hasLeft, HasRight: hasRight,
		Points: planes * cfg.PlanePoints, Time: predicted,
	}
	if hasLeft {
		data, err := w.c.Recv(w.rank-1, tagLoadInfo)
		if err != nil {
			return err
		}
		ctl.CountRecv(8 * len(data))
		win.PointsLeft = int(data[0]) * cfg.PlanePoints
		win.TimeLeft = data[1]
	}
	if hasRight {
		data, err := w.c.Recv(w.rank+1, tagLoadInfo)
		if err != nil {
			return err
		}
		ctl.CountRecv(8 * len(data))
		win.PointsRight = int(data[0]) * cfg.PlanePoints
		win.TimeRight = data[1]
	}

	// Decide (pure shared logic) and exchange desires for conflict
	// resolution. DecideNode desires are already budget-capped, so the
	// per-boundary net is final.
	myL, myR := cfg.DecideNode(win)
	desire := []float64{float64(myL), float64(myR)}
	var leftDesire, rightDesire core.Desire
	if hasLeft {
		ctl.CountSend(8 * len(desire))
		if err := w.c.Send(w.rank-1, tagDesire, desire); err != nil {
			return err
		}
	}
	if hasRight {
		ctl.CountSend(8 * len(desire))
		if err := w.c.Send(w.rank+1, tagDesire, desire); err != nil {
			return err
		}
	}
	if hasLeft {
		d, err := w.c.Recv(w.rank-1, tagDesire)
		if err != nil {
			return err
		}
		ctl.CountRecv(8 * len(d))
		leftDesire = core.Desire{ToLeft: int(d[0]), ToRight: int(d[1])}
	}
	if hasRight {
		d, err := w.c.Recv(w.rank+1, tagDesire)
		if err != nil {
			return err
		}
		ctl.CountRecv(8 * len(d))
		rightDesire = core.Desire{ToLeft: int(d[0]), ToRight: int(d[1])}
	}

	// Net flow on each of my boundaries (positive = rightward), agreed
	// by both sides from the same two desires.
	var netL, netR int
	if hasLeft {
		// Positive = rightward = the left neighbor ships planes to me.
		netL = leftDesire.ToRight - myL
	}
	if hasRight {
		netR = myR - rightDesire.ToLeft
	}
	if after := planes + netL - netR; after < MinSlabPlanes {
		return &SlabFloorError{Rank: w.rank, Planes: after}
	}
	if err := w.moveBoundary(w.rank-1, netL); err != nil {
		return err
	}
	return w.moveBoundary(w.rank+1, netR)
}

// moveBoundary transfers |net| planes across the boundary between this
// rank and neighbor: net > 0 means planes flow rightward (toward the
// higher rank), net < 0 leftward.
//
// The transfer is allocation-free in the steady state: departing f
// planes are packed into the grow-only migration buffer and their
// storage recycled into the worker's plane pool; received planes are
// copied out of the transport buffer into pooled storage before
// attachment, so a slab never aliases memory the transport may reuse.
func (w *worker) moveBoundary(neighbor, net int) error {
	if net == 0 {
		return nil
	}
	rightward := net > 0
	count := net
	if count < 0 {
		count = -count
	}
	sending := (rightward && neighbor == w.rank+1) || (!rightward && neighbor == w.rank-1)
	tag := tagPlanesRight
	if !rightward {
		tag = tagPlanesLeft
	}
	nc := len(w.f)
	sz := w.f[0].PlaneSize()
	mig := &w.res.Breakdown.Bytes.Migration
	if sending {
		fromLeft := !rightward
		need := count * nc * sz
		if cap(w.migBuf) < need {
			w.migBuf = make([]float64, need)
		}
		w.migBuf = w.migBuf[:need]
		// Message layout: per plane (ascending global x), the
		// per-component planes concatenated.
		for c := 0; c < nc; c++ {
			pop := w.f[c].PopRight
			if fromLeft {
				pop = w.f[c].PopLeft
			}
			for i, p := range pop(count) {
				copy(w.migBuf[(i*nc+c)*sz:(i*nc+c+1)*sz], p)
				w.poolDist = append(w.poolDist, p)
			}
		}
		w.res.PlanesSent += count
		return w.sendWire(neighbor, tag, w.migBuf, &w.wireSendL, mig)
	}
	msg, err := w.recvWire(neighbor, tag, count*nc*sz, "plane transfer", &w.rawRecvL, mig)
	if err != nil {
		return err
	}
	if cap(w.migHdr) < count {
		w.migHdr = make([][]float64, count)
	}
	hdr := w.migHdr[:count]
	for c := 0; c < nc; c++ {
		push := w.f[c].PushRight
		if rightward {
			// Rightward flow arrives at the receiver's left edge.
			push = w.f[c].PushLeft
		}
		for i := range hdr {
			hdr[i] = w.grabDist()
			copy(hdr[i], msg[(i*nc+c)*sz:(i*nc+c+1)*sz])
		}
		push(hdr)
	}
	return nil
}

// grabDist returns a distribution plane from the pool, or a fresh one
// when the pool is dry (first growth past the high-water mark).
func (w *worker) grabDist() []float64 {
	if n := len(w.poolDist); n > 0 {
		p := w.poolDist[n-1]
		w.poolDist = w.poolDist[:n-1]
		return p
	}
	return make([]float64, w.f[0].PlaneSize())
}

// remapGlobal is the distributed global scheme: allgather the load
// indices, compute the identical transfer list everywhere, and execute
// the transfers involving this rank in a feasibility order shared by
// all ranks.
func (w *worker) remapGlobal(pol balance.Policy) error {
	planes := w.f[0].Count()
	predicted := w.pred.Predict() * float64(planes)
	ctl := &w.res.Breakdown.Bytes.Control
	ctl.CountSend(8 * 2)
	all, err := w.c.AllGather([]float64{float64(planes), predicted})
	if err != nil {
		return err
	}
	planesAll := make([]int, w.size)
	predAll := make([]float64, w.size)
	for r, data := range all {
		if len(data) != 2 {
			return fmt.Errorf("parlbm: load gather from %d has %d values", r, len(data))
		}
		ctl.CountRecv(8 * len(data))
		planesAll[r] = int(data[0])
		predAll[r] = data[1]
	}
	ts := pol.Round(planesAll, predAll)
	ordered, err := orderTransfers(ts, planesAll)
	if err != nil {
		return err
	}
	// Every rank derives the same counts, so all fail together.
	after := append([]int(nil), planesAll...)
	for _, tr := range ts {
		after[tr.From] -= tr.Planes
		after[tr.To] += tr.Planes
	}
	for r, n := range after {
		if n < MinSlabPlanes {
			return &SlabFloorError{Rank: r, Planes: n}
		}
	}
	for _, tr := range ordered {
		if tr.From != w.rank && tr.To != w.rank {
			continue
		}
		net := tr.Planes
		if tr.To < tr.From {
			net = -net
		}
		neighbor := tr.From
		if tr.From == w.rank {
			neighbor = tr.To
		}
		if err := w.moveBoundary(neighbor, net); err != nil {
			return err
		}
	}
	return nil
}

// orderTransfers sequences transfers so every sender owns the planes it
// ships at execution time (a plane relayed across several ranks must
// arrive before it departs). The greedy fixpoint is deterministic, so
// all ranks derive the same order.
func orderTransfers(ts []decomp.Transfer, counts []int) ([]decomp.Transfer, error) {
	remaining := append([]decomp.Transfer(nil), ts...)
	have := append([]int(nil), counts...)
	var ordered []decomp.Transfer
	for len(remaining) > 0 {
		progressed := false
		rest := remaining[:0]
		for _, tr := range remaining {
			if have[tr.From] >= tr.Planes {
				have[tr.From] -= tr.Planes
				have[tr.To] += tr.Planes
				ordered = append(ordered, tr)
				progressed = true
			} else {
				rest = append(rest, tr)
			}
		}
		remaining = rest
		if !progressed {
			return nil, fmt.Errorf("parlbm: transfer plan not executable: %+v with counts %v", remaining, counts)
		}
	}
	return ordered, nil
}

// gather sends every rank's slab to rank 0, which reconstructs the full
// per-component distribution fields. Message layout: [start, count,
// planes...] with each plane's components concatenated.
func (w *worker) gather() error {
	nc := w.p.NComp()
	sz := w.f[0].PlaneSize()
	start, count := w.f[0].Start, w.f[0].Count()
	if w.rank != 0 {
		msg := make([]float64, 0, 2+count*nc*sz)
		msg = append(msg, float64(start), float64(count))
		for gx := start; gx < start+count; gx++ {
			for c := 0; c < nc; c++ {
				msg = append(msg, w.f[c].Plane(gx)...)
			}
		}
		w.res.Breakdown.Bytes.Gather.CountSend(8 * len(msg))
		return w.c.Send(0, tagGather, msg)
	}
	final := make([]*field.Dist3D, nc)
	for c := 0; c < nc; c++ {
		final[c] = field.NewDist3D(w.p.NX, w.p.NY, w.p.NZ, 19)
		for gx := start; gx < start+count; gx++ {
			copy(final[c].Plane(gx), w.f[c].Plane(gx))
		}
	}
	for r := 1; r < w.size; r++ {
		msg, err := w.c.Recv(r, tagGather)
		if err != nil {
			return err
		}
		w.res.Breakdown.Bytes.Gather.CountRecv(8 * len(msg))
		if len(msg) < 2 {
			return fmt.Errorf("parlbm: short gather message from %d", r)
		}
		start, count := int(msg[0]), int(msg[1])
		if len(msg) != 2+count*nc*sz || start < 0 || start+count > w.p.NX {
			return fmt.Errorf("parlbm: bad gather from %d: start %d count %d len %d", r, start, count, len(msg))
		}
		off := 2
		for gx := start; gx < start+count; gx++ {
			for c := 0; c < nc; c++ {
				copy(final[c].Plane(gx), msg[off:off+sz])
				off += sz
			}
		}
	}
	w.res.Final = final
	return nil
}

// RunParallel runs a full parallel simulation over an in-process
// communicator group and returns the fields gathered to rank 0 and
// every rank's result.
func RunParallel(p *lbm.Params, ranks int, opts Options) ([]*field.Dist3D, []*Result, error) {
	fabric := comm.NewFabric(ranks)
	defer fabric.Close()
	results, err := runGroup(p, fabric.Endpoints(), opts, runctl.NewSupervisor(opts.Ctx, opts.WallLimit), fabric.Close, true)
	if err != nil {
		return nil, results, err
	}
	return results[0].Final, results, nil
}

// RunParallelTCP is RunParallel over TCP loopback.
func RunParallelTCP(p *lbm.Params, ranks int, opts Options) ([]*field.Dist3D, []*Result, error) {
	eps, shutdown, err := comm.NewTCPGroup(ranks)
	if err != nil {
		return nil, nil, err
	}
	defer shutdown()
	results, err := runGroup(p, eps, opts, runctl.NewSupervisor(opts.Ctx, opts.WallLimit), shutdown, true)
	if err != nil {
		return nil, results, err
	}
	return results[0].Final, results, nil
}

// RunParallelReduced is RunParallel without the end-of-run gather: no
// field leaves its rank. What a caller needs of the final state comes
// back in the per-rank results instead — each rank's share of the mass
// (sum Result.Mass over ranks) and, from the rank owning plane NX/2,
// the mid-channel velocity Profile.
func RunParallelReduced(p *lbm.Params, ranks int, opts Options) ([]*Result, error) {
	fabric := comm.NewFabric(ranks)
	defer fabric.Close()
	return runGroup(p, fabric.Endpoints(), opts, runctl.NewSupervisor(opts.Ctx, opts.WallLimit), fabric.Close, false)
}

// runGroup drives one goroutine per rank over the raw endpoints, all
// sharing sup, which holds the orderly stop-phase agreement and the
// hard-abort flag. A group aborts the MPI way, by abort — the transport
// teardown (close every mailbox / connection) — so a peer blocked on a
// failed rank's traffic fails fast with comm.ErrClosed instead of
// waiting for its messages. abort runs at most once: on the first
// non-interrupt rank failure, or from the watcher when sup trips hard
// (a rank panic) or a soft stop overruns sup.Grace. Soft stops never
// tear down: every rank reaches the agreed boundary on its own. abort
// must be safe to call concurrently with endpoint use and again
// afterwards (both transports' teardowns are).
func runGroup(p *lbm.Params, eps []comm.Comm, opts Options, sup *runctl.Supervisor, abort func(), gather bool) ([]*Result, error) {
	ranks := len(eps)
	abort = sync.OnceFunc(abort)
	quit := make(chan struct{})
	watched := watch(sup, abort, quit)
	results := make([]*Result, ranks)
	errs := make([]error, ranks)
	done := make(chan int, ranks)
	for r := 0; r < ranks; r++ {
		go func(r int) {
			defer func() { done <- r }()
			defer func() {
				if rec := recover(); rec != nil {
					// A rank goroutine panic becomes a typed, attributable
					// cause and trips the shared abort, so the watcher
					// tears the transport down under every peer blocked
					// on this rank's traffic.
					pe := &runctl.PanicError{Rank: r, Band: -1, Value: rec, Stack: debug.Stack()}
					sup.Trip(pe)
					errs[r] = pe
				}
			}()
			results[r], errs[r] = runRank(p, eps[r], opts, sup, gather)
		}(r)
	}
	// Aggregate every rank failure, in completion order: the first is
	// usually the root cause and later ones teardown casualties
	// (ErrClosed) of the abort below, but a kill plus a secondary
	// timeout must both be diagnosable from the returned error. Orderly
	// interruptions never tear the transport down — every rank stops at
	// the agreed boundary on its own — and hand the per-rank results
	// (carrying Result.Interrupted) back alongside the joined error.
	var failures []error
	interruptsOnly := true
	for i := 0; i < ranks; i++ {
		r := <-done
		if errs[r] == nil {
			continue
		}
		failures = append(failures, &RankError{Rank: r, Err: errs[r]})
		if !runctl.IsInterrupt(errs[r]) {
			interruptsOnly = false
			abort()
		}
	}
	close(quit)
	cause := <-watched
	if len(failures) == 0 {
		return results, nil
	}
	// A watcher teardown is a hard abort: its cause joins the rank
	// failures (which may only show ErrClosed), and no result is
	// trusted.
	if cause != nil {
		if !errors.Is(errors.Join(failures...), cause) {
			failures = append(failures, fmt.Errorf("parlbm: group aborted: %w", cause))
		}
		interruptsOnly = false
	}
	if interruptsOnly {
		return results, errors.Join(failures...)
	}
	return nil, errors.Join(failures...)
}

// watch tears the group down with abort, once, when sup trips hard or
// a soft stop overruns its grace (sup.HardErr turns non-nil; polling it
// every sup.Poll() also latches when a soft cause was first seen). Its
// channel yields the cause it tore down for, or nil once quit closes
// first.
func watch(sup *runctl.Supervisor, abort func(), quit <-chan struct{}) <-chan error {
	out := make(chan error, 1)
	go func() {
		tick := time.NewTicker(sup.Poll())
		defer tick.Stop()
		for {
			select {
			case <-quit:
				out <- nil
				return
			case <-sup.Done():
			case <-tick.C:
			}
			if err := sup.HardErr(); err != nil {
				abort()
				out <- err
				return
			}
		}
	}()
	return out
}
