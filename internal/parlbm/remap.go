package parlbm

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"microslip/internal/balance"
	"microslip/internal/comm"
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

	if pol := w.opts.Policy; pol.Global() {
		return w.remapGlobal(pol)
	}
	return w.remapLocal(w.opts.Policy.Cfg)
}

// remapLocal is the distributed filtered/conservative protocol. Note
// the remapping topology is the *chain* (no wraparound): planes only
// move across subdomain boundaries, and ranks 0 and P-1 have one chain
// neighbor even though the frame exchange is a ring.
func (w *worker) remapLocal(cfg balance.Config) error {
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
	win := balance.Window{
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
	var leftDesire, rightDesire balance.Desire
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
		leftDesire = balance.Desire{ToLeft: int(d[0]), ToRight: int(d[1])}
	}
	if hasRight {
		d, err := w.c.Recv(w.rank+1, tagDesire)
		if err != nil {
			return err
		}
		ctl.CountRecv(8 * len(d))
		rightDesire = balance.Desire{ToLeft: int(d[0]), ToRight: int(d[1])}
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
// Planes cross one message each, nearest the boundary first, so the
// receiver attaches every plane at its edge as it arrives. A departing
// plane is packed into migBuf and handed to the group's plane pool; an
// arriving one is copied out of the transport's leased buffer, before
// the next receive on the stream ends the lease, into a plane taken
// from that pool. The group therefore holds one lattice during a
// migration, no slab aliases memory the transport reuses, and the
// steady state allocates nothing on either side.
func (w *worker) moveBoundary(neighbor, net int) error {
	if net == 0 {
		return nil
	}
	defer w.bind()
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
		msg := w.planeBuf()
		for i := 0; i < count; i++ {
			for c, s := range w.f {
				pop := s.PopLeft
				if rightward {
					pop = s.PopRight
				}
				out := pop(1)
				copy(msg[c*sz:(c+1)*sz], out[0])
				w.pool.put(out[0])
				// out aliases the vacated deque slot: clearing it leaves
				// the slab no reference to the departed plane.
				out[0] = nil
			}
			w.res.PlanesSent++
			if err := w.sendWire(neighbor, tag, msg, &w.wireSendL, mig); err != nil {
				return err
			}
			yieldToReceiver()
		}
		return nil
	}
	for i := 0; i < count; i++ {
		msg, err := w.recvWire(neighbor, tag, nc*sz, "plane transfer", &w.rawRecvL, mig)
		if err != nil {
			return err
		}
		for c, s := range w.f {
			push := s.PushRight
			if rightward {
				// Rightward flow arrives at the receiver's left edge.
				push = s.PushLeft
			}
			w.migHdr[0] = w.pool.get(sz)
			copy(w.migHdr[0], msg[c*sz:(c+1)*sz])
			push(w.migHdr[:])
		}
		w.migHdr[0] = nil
	}
	return nil
}

// yieldToReceiver follows each plane message of a burst. A receiver
// sharing the sender's core takes the message and, by taking it, ends
// its lease on the one before, so the next send reuses that buffer
// instead of allocating: without the yield the sender queues the whole
// burst first, one fresh plane-sized buffer per message. A receiver on
// a core of its own is already running, and the yield finds nothing to
// do.
func yieldToReceiver() { runtime.Gosched() }

// planeBuf returns migBuf sized to one plane message: every
// component's plane of one x index, concatenated.
func (w *worker) planeBuf() []float64 {
	n := len(w.f) * w.f[0].PlaneSize()
	if cap(w.migBuf) < n {
		w.migBuf = make([]float64, n)
	}
	return w.migBuf[:n]
}

// planePool is a group's free list of distribution planes, shared by
// all its ranks. Migration conserves planes across the group — every
// plane one rank sends is one its neighbor receives — so the pool
// carries each departing plane to the receive that reuses it, and
// never holds more than the planes in flight. Its mutex orders a
// sender's put before the get that reuses the plane (the put precedes
// the send, the get follows the receive).
type planePool struct {
	mu   sync.Mutex
	free [][]float64
}

// get returns a plane of n values from the pool, or a fresh one when
// the pool is dry.
func (pp *planePool) get(n int) []float64 {
	pp.mu.Lock()
	defer pp.mu.Unlock()
	if k := len(pp.free); k > 0 {
		p := pp.free[k-1]
		pp.free[k-1] = nil
		pp.free = pp.free[:k-1]
		return p
	}
	return make([]float64, n)
}

// put returns a plane its slab no longer owns to the pool.
func (pp *planePool) put(p []float64) {
	pp.mu.Lock()
	pp.free = append(pp.free, p)
	pp.mu.Unlock()
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
	if err := slabFloor(planesAll, ts); err != nil {
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

// slabFloor returns a *SlabFloorError naming the first rank that the
// transfers ts leave with fewer than MinSlabPlanes of its counts planes.
func slabFloor(counts []int, ts []balance.Transfer) error {
	after := append([]int(nil), counts...)
	for _, tr := range ts {
		after[tr.From] -= tr.Planes
		after[tr.To] += tr.Planes
	}
	for r, n := range after {
		if n < MinSlabPlanes {
			return &SlabFloorError{Rank: r, Planes: n}
		}
	}
	return nil
}

// orderTransfers sequences transfers so every sender owns the planes it
// ships at execution time (a plane relayed across several ranks must
// arrive before it departs). The greedy fixpoint is deterministic, so
// all ranks derive the same order.
func orderTransfers(ts []balance.Transfer, counts []int) ([]balance.Transfer, error) {
	remaining := append([]balance.Transfer(nil), ts...)
	have := append([]int(nil), counts...)
	var ordered []balance.Transfer
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

// gather streams every rank's slab to rank 0, which copies each plane
// straight into the full per-component distribution fields before its
// next receive ends the message's lease. Rank 0 pulls one rank at a
// time: once its fields are allocated it sends rank r an empty request,
// and r answers with a [start, count] header, then count plane messages
// in ascending x, each holding that plane's components concatenated.
// The slabs of the ranks not yet asked stay where they are instead of
// queueing, plane by fresh plane, in rank 0's inbox.
func (w *worker) gather() error {
	nc := w.p.NComp()
	sz := w.f[0].PlaneSize()
	start, count := w.f[0].Start, w.f[0].Count()
	cls := &w.res.Breakdown.Bytes.Gather
	if w.rank != 0 {
		req, err := w.c.Recv(0, tagGather)
		if err != nil {
			return err
		}
		cls.CountRecv(8 * len(req))
		hdr := []float64{float64(start), float64(count)}
		cls.CountSend(8 * len(hdr))
		if err := w.c.Send(0, tagGather, hdr); err != nil {
			return err
		}
		msg := w.planeBuf()
		for gx := start; gx < start+count; gx++ {
			for c, s := range w.f {
				copy(msg[c*sz:(c+1)*sz], s.Plane(gx))
			}
			cls.CountSend(8 * len(msg))
			if err := w.c.Send(0, tagGather, msg); err != nil {
				return err
			}
			yieldToReceiver()
		}
		return nil
	}
	final := make([]*field.Dist3D, nc)
	for c := 0; c < nc; c++ {
		final[c] = field.NewDist3D(w.p.NX, w.p.NY, w.p.NZ, 19)
		for gx := start; gx < start+count; gx++ {
			copy(final[c].Plane(gx), w.f[c].Plane(gx))
		}
	}
	for r := 1; r < w.size; r++ {
		cls.CountSend(0)
		if err := w.c.Send(r, tagGather, nil); err != nil {
			return err
		}
		hdr, err := w.c.Recv(r, tagGather)
		if err != nil {
			return err
		}
		cls.CountRecv(8 * len(hdr))
		if len(hdr) != 2 {
			return fmt.Errorf("parlbm: gather header from %d has %d values, want 2", r, len(hdr))
		}
		start, count := int(hdr[0]), int(hdr[1])
		if start < 0 || count < 0 || start+count > w.p.NX {
			return fmt.Errorf("parlbm: bad gather header from %d: start %v count %v", r, hdr[0], hdr[1])
		}
		for gx := start; gx < start+count; gx++ {
			msg, err := w.c.Recv(r, tagGather)
			if err != nil {
				return err
			}
			cls.CountRecv(8 * len(msg))
			if len(msg) != nc*sz {
				return fmt.Errorf("parlbm: gather plane %d from %d has %d values, want %d", gx, r, len(msg), nc*sz)
			}
			for c := 0; c < nc; c++ {
				copy(final[c].Plane(gx), msg[c*sz:(c+1)*sz])
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
// hard-abort flag, and one plane pool, which carries each migrating
// plane from the rank it leaves to the rank it joins. A group aborts the MPI way, by abort — the transport
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
	pool := &planePool{}
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
			results[r], errs[r] = runRank(p, eps[r], opts, sup, pool, gather)
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
