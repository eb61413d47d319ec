package parlbm

import (
	"errors"
	"fmt"
	"runtime/debug"
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
// neighbor even though halo exchange is a ring.
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
	if hasLeft {
		// Positive = rightward = the left neighbor ships planes to me.
		net := leftDesire.ToRight - myL
		if err := w.moveBoundary(w.rank-1, net); err != nil {
			return err
		}
	}
	if hasRight {
		net := myR - rightDesire.ToLeft
		if err := w.moveBoundary(w.rank+1, net); err != nil {
			return err
		}
	}
	return nil
}

// moveBoundary transfers |net| planes across the boundary between this
// rank and neighbor: net > 0 means planes flow rightward (toward the
// higher rank), net < 0 leftward.
//
// The transfer is allocation-free in the steady state: departing f
// planes are packed into the grow-only migration buffer and all three
// slabs' storage recycled into the worker's plane pools; received
// planes are copied out of the transport buffer into pooled storage
// before attachment, so a slab never aliases memory the transport may
// reuse, and the cached plane views shift incrementally with the
// boundary instead of being rebuilt.
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
		// per-component planes concatenated — always canonical order, so
		// the wire bytes are layout-independent.
		cells := w.k.PlaneCells()
		for c := 0; c < nc; c++ {
			var pl [][]float64
			if fromLeft {
				pl = w.f[c].PopLeft(count)
			} else {
				pl = w.f[c].PopRight(count)
			}
			for i, p := range pl {
				if w.soa {
					field.TransposeToAoS(w.migBuf[(i*nc+c)*sz:(i*nc+c+1)*sz], p, cells, 19)
				} else {
					copy(w.migBuf[(i*nc+c)*sz:(i*nc+c+1)*sz], p)
				}
				w.poolDist = append(w.poolDist, p)
			}
		}
		for c := 0; c < nc; c++ {
			var pl, sl [][]float64
			if fromLeft {
				pl = w.fPost[c].PopLeft(count)
				sl = w.n[c].PopLeft(count)
			} else {
				pl = w.fPost[c].PopRight(count)
				sl = w.n[c].PopRight(count)
			}
			w.poolDist = append(w.poolDist, pl...)
			w.poolScalar = append(w.poolScalar, sl...)
		}
		if fromLeft {
			w.fView.popLeft(count)
			w.nView.popLeft(count)
			w.postView.popLeft(count)
		} else {
			w.fView.popRight(count)
			w.nView.popRight(count)
			w.postView.popRight(count)
		}
		w.res.PlanesSent += count
		return w.sendWire(neighbor, tag, w.migBuf, &w.wireSendL, mig)
	}
	msg, err := w.recvWire(neighbor, tag, count*nc*sz, "plane transfer", &w.rawRecvL, mig)
	if err != nil {
		return err
	}
	// Rightward flow arrives at the receiver's left edge.
	atLeft := rightward
	if cap(w.migHdr) < count {
		w.migHdr = make([][]float64, count)
	}
	hdr := w.migHdr[:count]
	cells := w.k.PlaneCells()
	for c := 0; c < nc; c++ {
		for i := 0; i < count; i++ {
			p := w.grabDist()
			if w.soa {
				field.TransposeToSoA(p, msg[(i*nc+c)*sz:(i*nc+c+1)*sz], cells, 19)
			} else {
				copy(p, msg[(i*nc+c)*sz:(i*nc+c+1)*sz])
			}
			hdr[i] = p
		}
		if atLeft {
			w.f[c].PushLeft(hdr)
		} else {
			w.f[c].PushRight(hdr)
		}
		// fPost and n get pooled storage too; their contents are
		// recomputed from f every phase, so no values travel.
		for i := 0; i < count; i++ {
			hdr[i] = w.grabDist()
		}
		if atLeft {
			w.fPost[c].PushLeft(hdr)
		} else {
			w.fPost[c].PushRight(hdr)
		}
		for i := 0; i < count; i++ {
			hdr[i] = w.grabScalar()
		}
		if atLeft {
			w.n[c].PushLeft(hdr)
		} else {
			w.n[c].PushRight(hdr)
		}
	}
	if atLeft {
		w.fView.pushLeft(w.f, count)
		w.nView.pushLeft(w.n, count)
		w.postView.pushLeft(w.fPost, count)
	} else {
		w.fView.pushRight(w.f, count)
		w.nView.pushRight(w.n, count)
		w.postView.pushRight(w.fPost, count)
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

// grabScalar is grabDist for density planes.
func (w *worker) grabScalar() []float64 {
	if n := len(w.poolScalar); n > 0 {
		p := w.poolScalar[n-1]
		w.poolScalar = w.poolScalar[:n-1]
		return p
	}
	return make([]float64, w.k.PlaneCells())
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
	cells := w.k.PlaneCells()
	if w.rank != 0 {
		start, count := w.f[0].Start, w.f[0].Count()
		msg := make([]float64, 0, 2+count*nc*sz)
		msg = append(msg, float64(start), float64(count))
		// Wire planes are canonical order regardless of the in-memory
		// layout, so rank 0 never needs to know the senders' layouts.
		var scratch []float64
		if w.soa {
			scratch = make([]float64, sz)
		}
		for gx := start; gx < start+count; gx++ {
			for c := 0; c < nc; c++ {
				if w.soa {
					field.TransposeToAoS(scratch, w.f[c].Plane(gx), cells, 19)
					msg = append(msg, scratch...)
				} else {
					msg = append(msg, w.f[c].Plane(gx)...)
				}
			}
		}
		w.res.Breakdown.Bytes.Gather.CountSend(8 * len(msg))
		return w.c.Send(0, tagGather, msg)
	}
	final := make([]*field.Dist3D, nc)
	for c := 0; c < nc; c++ {
		final[c] = field.NewDist3D(w.p.NX, w.p.NY, w.p.NZ, 19)
	}
	place := func(gx int, c int, data []float64) {
		copy(final[c].Plane(gx), data)
	}
	for gx := w.f[0].Start; gx < w.f[0].End(); gx++ {
		for c := 0; c < nc; c++ {
			if w.soa {
				field.TransposeToAoS(final[c].Plane(gx), w.f[c].Plane(gx), cells, 19)
			} else {
				place(gx, c, w.f[c].Plane(gx))
			}
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
				place(gx, c, msg[off:off+sz])
				off += sz
			}
		}
	}
	w.res.Final = final
	return nil
}

// RunParallel runs a full parallel simulation over an in-process
// communicator group and returns the gathered fields (from rank 0) and
// every rank's result.
func RunParallel(p *lbm.Params, ranks int, opts Options) ([]*field.Dist3D, []*Result, error) {
	fabric := comm.NewFabric(ranks)
	defer fabric.Close()
	return runGroup(p, fabric.Endpoints(), opts, fabric.Close)
}

// RunParallelTCP is RunParallel over TCP loopback.
func RunParallelTCP(p *lbm.Params, ranks int, opts Options) ([]*field.Dist3D, []*Result, error) {
	eps, shutdown, err := comm.NewTCPGroup(ranks)
	if err != nil {
		return nil, nil, err
	}
	defer shutdown()
	return runGroup(p, eps, opts, shutdown)
}

// runGroup drives one goroutine per rank. Abort liveness comes from
// WithSupervisionAll: every endpoint polls the shared supervisor's
// hard-abort check, so when one rank fails (a panic trips the
// supervisor) its peers unwind out of any blocked receive or
// collective. abort is the group-level transport teardown (close every
// mailbox / connection); it runs once, on the first non-interrupt rank
// failure, so peers blocked on the failed rank's traffic fail fast with
// ErrClosed instead of waiting for its messages. It must be safe to
// call concurrently with endpoint use and again afterwards (both
// transports' teardowns are).
func runGroup(p *lbm.Params, eps []comm.Comm, opts Options, abort func()) ([]*field.Dist3D, []*Result, error) {
	ranks := len(eps)
	// One supervisor for the whole group: the orderly stop-phase
	// agreement and the panic abort flag live in its shared state. Every
	// endpoint is wrapped so a blocked receive polls the hard-abort
	// check; soft causes deliberately do NOT fail receives (HardErr
	// stays nil during an orderly stop), so halo traffic keeps flowing
	// until every rank reaches the agreed boundary.
	sup := runctl.NewSupervisor(opts.Ctx, opts.WallLimit)
	seps := comm.WithSupervisionAll(eps, sup.HardErr, sup.Poll())
	results := make([]*Result, ranks)
	errs := make([]error, ranks)
	done := make(chan int, ranks)
	for r := 0; r < ranks; r++ {
		go func(r int) {
			defer func() { done <- r }()
			defer func() {
				if rec := recover(); rec != nil {
					// A rank goroutine panic becomes a typed, attributable
					// cause and trips the shared abort, so every peer
					// blocked in a supervised receive unwinds instead of
					// waiting for this rank's traffic forever.
					pe := &runctl.PanicError{Rank: r, Band: -1, Value: rec, Stack: debug.Stack()}
					sup.Trip(pe)
					errs[r] = pe
				}
			}()
			results[r], errs[r] = RunRankSupervised(p, seps[r], opts, sup)
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
	aborted := false
	interruptsOnly := true
	for i := 0; i < ranks; i++ {
		r := <-done
		if errs[r] == nil {
			continue
		}
		failures = append(failures, &RankError{Rank: r, Err: errs[r]})
		if !runctl.IsInterrupt(errs[r]) {
			interruptsOnly = false
			if !aborted {
				aborted = true
				abort()
			}
		}
	}
	if len(failures) > 0 {
		if interruptsOnly {
			return nil, results, errors.Join(failures...)
		}
		return nil, nil, errors.Join(failures...)
	}
	return results[0].Final, results, nil
}
