// Package parlbm is the domain-decomposed parallel LBM solver: the
// distributed counterpart of the paper's Figure 2 pseudo-code. Each
// rank owns a contiguous slab of x-planes, exchanges number-density and
// distribution-function halos with its ring neighbors every phase, and
// every REMAPPING_INTERVAL phases runs the distributed remapping
// protocol: load-index exchange with chain neighbors, local decisions
// (package core), pairwise conflict resolution, and lattice-plane
// migration.
//
// The kernels are shared with the sequential solver (package lbm), so a
// parallel run reproduces the sequential result bit-for-bit — including
// runs whose partition changes mid-flight.
//
// # Halo wire protocol
//
// Only 5 of the 19 D3Q19 populations cross an x-face in each direction,
// so by default the distribution halo ships slim planes — per cell, the
// lattice.CrossQ crossing populations in RightGoing/LeftGoing slot
// order — alongside the full density plane the psi-gradient needs:
// 6 instead of 20 floats per cell per component. Options.WideHalo
// restores the full 19-direction format (bit-identical results either
// way). Options.Coalesce further merges the two per-neighbor messages
// per phase into one frame carrying the pre-collision edge plane plus
// the second-from-edge density; the receiver recomputes the ghost
// density and redundantly collides the ghost plane with the shared
// kernels, which is bit-identical because every input is bit-identical
// and the kernels are deterministic. See README.md for the exact wire
// layouts.
//
// Options.WireF32 (implied when Params.Precision selects the float32
// core) additionally ships every bulk payload — halo planes, coalesced
// frames, migrating lattice planes — as packed float32: two values per
// transported float64 word, halving the dominant wire classes at a
// ~1e-7 relative rounding per transported value. Control, load-index,
// and gather traffic stays float64. Compressed runs are deterministic
// but deliberately not bit-identical to the sequential solver.
package parlbm

import (
	"context"
	"fmt"
	"time"

	"microslip/internal/balance"
	"microslip/internal/checkpoint"
	"microslip/internal/comm"
	"microslip/internal/decomp"
	"microslip/internal/field"
	"microslip/internal/lattice"
	"microslip/internal/lbm"
	"microslip/internal/num"
	"microslip/internal/predict"
	"microslip/internal/profile"
	"microslip/internal/runctl"
)

// Message tags. Halo payloads are tagged by the direction they travel:
// a *L tag marks data sent toward the sender's left neighbor, *R toward
// its right. Direction-distinct tags matter on two ranks, where both
// neighbors are the same peer and a shared tag would make the two
// opposite-facing halos indistinguishable (FIFO delivery would hand the
// peer's left-bound edge to the right ghost and vice versa — invisible
// on x-uniform fields, wrong on everything else).
const (
	tagDensHaloL   = 1
	tagDensHaloR   = 2
	tagLoadInfo    = 3
	tagDesire      = 4
	tagPlanesLeft  = 5
	tagPlanesRight = 6
	tagGather      = 7
	tagDistHaloL   = 8
	tagDistHaloR   = 9
	tagFrameL      = 10
	tagFrameR      = 11
)

// Coalesced-frame kind header values (first float of the payload).
const (
	frameWide = 1 // pre-collision edge plane + far density
	frameThin = 2 // edge density only; slim post-collision halo follows
)

// Options configures a parallel run.
type Options struct {
	// Phases is the number of LBM phases to execute.
	Phases int
	// Ctx, when non-nil, supervises the run: cancelling it asks every
	// rank to stop orderly at a common phase boundary (agreed through
	// the group's shared stop-phase protocol), write a coordinated
	// interrupt checkpoint when Checkpoint is configured, and return a
	// typed error wrapping runctl.ErrCanceled with Result.Interrupted
	// describing the stop. A nil Ctx (with zero WallLimit) runs
	// unsupervised, exactly as before.
	Ctx context.Context
	// WallLimit, when positive, is the run's wall-clock budget counted
	// from launch; exceeding it stops the run exactly like a
	// cancellation, with the error wrapping runctl.ErrWallLimit.
	WallLimit time.Duration
	// Policy is the remapping scheme; nil means no remapping.
	Policy balance.Policy
	// PhaseTime, when non-nil, replaces wall-clock measurement of the
	// compute section with a synthetic value (seconds); it makes
	// remapping tests deterministic and lets a single machine emulate
	// heterogeneous node speeds.
	PhaseTime func(rank, planes, phase int) float64
	// Throttle, when non-nil, is invoked after each phase's compute
	// section and may block (sleep or burn CPU) to emulate a slow node
	// in real wall-clock time; the blocked time counts toward the
	// rank's measured phase time, so the remapping machinery reacts to
	// it exactly as it would to genuine contention.
	Throttle func(rank, planes, phase int)
	// PhaseHook, when non-nil, runs at the start of every phase in the
	// rank's own goroutine. The abort-chaos harness uses it to inject
	// worker faults and to cancel at exact phases.
	PhaseHook func(rank, phase int)
	// PostPhase, when non-nil, runs after every phase with the rank's
	// current plane count and per-component local mass; a non-nil
	// return aborts the run. It is an invariant-checking hook (global
	// mass conservation, lattice-plane conservation) and costs nothing
	// when unset.
	PostPhase func(rank, phase, planes int, mass []float64) error
	// Checkpoint, when non-nil, enables coordinated distributed
	// checkpointing (and, with a Snapshot, resuming).
	Checkpoint *CheckpointSpec
	// Overlap enables comm/compute overlap inside each phase: the
	// boundary planes are computed first, their halos posted, and the
	// interior planes computed while the exchange is in flight; only
	// then does the rank block on the ghost receives and finish the
	// edge planes. The per-plane arithmetic is unchanged, so results
	// stay bit-identical to the non-overlapped (and sequential)
	// solver; Breakdown.Overlap reports the overlap window.
	Overlap bool
	// WideHalo ships the full 19-direction distribution planes in the
	// halo exchange (the pre-slim wire format) instead of only the 5
	// populations that cross each face. Results are bit-identical
	// either way; the wide format remains for byte-accounting
	// comparisons and as a cross-check in tests.
	WideHalo bool
	// Coalesce merges the two per-neighbor halo messages of each phase
	// into one frame posted at phase start, halving message count and
	// per-message overhead. The frame carries the sender's
	// pre-collision edge plane and second-from-edge density;
	// the receiver recomputes the ghost density and redundantly
	// collides the ghost plane locally, trading two plane collides per
	// phase for half the messages. Single-plane slabs cannot ship a
	// finishable edge (their post-collision edge depends on both
	// incoming frames), so they fall back to a thin density-only frame
	// plus a mid-phase slim distribution halo, negotiated per phase
	// through the frame kind header. Bit-identical to every other
	// solver variant.
	Coalesce bool
	// WireF32 ships the bulk payloads — halo planes, coalesced frames,
	// and migrating lattice planes — as packed float32 (two values per
	// float64 wire word), halving those wire classes at a ~1e-7
	// relative rounding per transported value; control, load-index, and
	// gather traffic stays float64. Runs remain deterministic and
	// composable with every halo format, but are no longer
	// bit-identical to the sequential solver. Implied when
	// Params.Precision selects the float32 core, where halo values
	// carry no double-width information worth shipping.
	WireF32 bool
}

// CheckpointSpec configures coordinated checkpointing of a parallel
// run. All ranks of a group must use an identical spec.
type CheckpointSpec struct {
	// Dir is the checkpoint directory shared by all ranks.
	Dir string
	// Interval is the number of phases between coordinated checkpoints.
	Interval int
	// Keep is how many committed checkpoint sets to retain (rank 0
	// prunes after each commit); values below 1 mean 2.
	Keep int
	// Snapshot, when non-nil, resumes the run from a committed
	// coordinated checkpoint instead of the equilibrium initial state:
	// every rank takes its even share of the snapshot's planes — the
	// group size may differ from the writer's — and the phase loop
	// starts at Snapshot.Phase.
	Snapshot *checkpoint.RunSnapshot
}

// Result is one rank's outcome.
type Result struct {
	// Rank that produced this result.
	Rank int
	// Final holds the gathered full distribution fields per component
	// on rank 0; nil on other ranks.
	Final []*field.Dist3D
	// Breakdown is the rank's wall-clock time split; Breakdown.Bytes
	// carries the per-class wire volume behind the communication time.
	Breakdown profile.Breakdown
	// FinalStart and FinalCount describe the rank's slab at the end.
	FinalStart, FinalCount int
	// PlanesSent counts planes this rank migrated away.
	PlanesSent int
	// Checkpoints counts coordinated checkpoint rounds this rank
	// completed; StartPhase is the phase the run (re)started from.
	Checkpoints, StartPhase int
	// Comm holds the rank's per-class wire byte counters (Comm.Bytes, a
	// copy of Breakdown.Bytes); Comm.Retries is always zero.
	Comm profile.CommStats
	// Interrupted is non-nil when the run stopped orderly before
	// completing all phases (cancellation, wall limit); the fields are
	// not gathered in that case, so Final stays nil on every rank.
	Interrupted *Interruption
}

// Interruption summarizes an orderly early stop of a supervised run.
type Interruption struct {
	// Cause is the stop cause (wrapping runctl.ErrCanceled or
	// runctl.ErrWallLimit).
	Cause error
	// Phase is the phase boundary the group agreed to stop at; a resume
	// continues from here.
	Phase int
	// Checkpointed reports whether a coordinated checkpoint is
	// committed at exactly Phase (false when the run had no
	// CheckpointSpec, so the in-memory state was the only copy).
	Checkpointed bool
}

// RankError attributes a rank goroutine's failure to its rank; group
// runners wrap every failure in one before joining, so multi-rank
// errors stay attributable (errors.As recovers the rank, Unwrap keeps
// the chain — including runctl.PanicError evidence — intact).
type RankError struct {
	// Rank is the failing rank within its group.
	Rank int
	// Err is the rank's failure.
	Err error
}

func (e *RankError) Error() string {
	return fmt.Sprintf("parlbm: rank %d failed: %v", e.Rank, e.Err)
}

func (e *RankError) Unwrap() error { return e.Err }

// planeViews is a deque of per-plane component views mirroring
// field.Slab's internal deque: win[i][c] is component c's plane at
// local index i. Incremental push/pop keeps view maintenance O(planes
// moved) during remapping and allocation-free in the steady state
// (records are recycled through a free list, the backing array keeps
// geometric slack on both ends).
type planeViews struct {
	win  [][][]float64
	buf  [][][]float64
	off  int
	free [][][]float64
}

// reset rebuilds the deque from scratch (initialization and recovery;
// remapping uses the incremental push/pop below).
func (v *planeViews) reset(slabs []*field.Slab) {
	count := slabs[0].Count()
	slack := count + 4
	v.buf = make([][][]float64, count+2*slack)
	v.off = slack
	v.free = nil
	for i := 0; i < count; i++ {
		rec := make([][]float64, len(slabs))
		for c, s := range slabs {
			rec[c] = s.Planes[i]
		}
		v.buf[v.off+i] = rec
	}
	v.win = v.buf[v.off : v.off+count]
}

func (v *planeViews) rec(nc int) [][]float64 {
	if n := len(v.free); n > 0 {
		r := v.free[n-1]
		v.free = v.free[:n-1]
		return r
	}
	return make([][]float64, nc)
}

func (v *planeViews) popLeft(k int) {
	for i := 0; i < k; i++ {
		v.free = append(v.free, v.buf[v.off+i])
		v.buf[v.off+i] = nil
	}
	count := len(v.win) - k
	v.off += k
	v.win = v.buf[v.off : v.off+count]
}

func (v *planeViews) popRight(k int) {
	count := len(v.win) - k
	for i := 0; i < k; i++ {
		v.free = append(v.free, v.buf[v.off+count+i])
		v.buf[v.off+count+i] = nil
	}
	v.win = v.buf[v.off : v.off+count]
}

// pushLeft prepends views of the k leftmost planes of slabs (which the
// caller just attached); pushRight appends the k rightmost.
func (v *planeViews) pushLeft(slabs []*field.Slab, k int) {
	if v.off < k {
		v.grow(k, 0)
	}
	for i := 0; i < k; i++ {
		r := v.rec(len(slabs))
		for c, s := range slabs {
			r[c] = s.Planes[i]
		}
		v.buf[v.off-k+i] = r
	}
	count := len(v.win) + k
	v.off -= k
	v.win = v.buf[v.off : v.off+count]
}

func (v *planeViews) pushRight(slabs []*field.Slab, k int) {
	count := len(v.win)
	if v.off+count+k > len(v.buf) {
		v.grow(0, k)
	}
	base := slabs[0].Count() - k
	for i := 0; i < k; i++ {
		r := v.rec(len(slabs))
		for c, s := range slabs {
			r[c] = s.Planes[base+i]
		}
		v.buf[v.off+count+i] = r
	}
	v.win = v.buf[v.off : v.off+count+k]
}

func (v *planeViews) grow(needL, needR int) {
	count := len(v.win)
	total := count + needL + needR
	slack := total
	if slack < 4 {
		slack = 4
	}
	buf := make([][][]float64, total+2*slack)
	off := slack + needL
	copy(buf[off:off+count], v.win)
	v.buf, v.off = buf, off
	v.win = v.buf[v.off : v.off+count]
}

// worker is the per-rank state.
type worker struct {
	p    *lbm.Params
	k    *lbm.Kernel
	c    comm.Comm
	opts Options
	sup  *runctl.Supervisor
	rank int
	size int
	// soa mirrors p.Layout == SoA: owned distribution planes are stored
	// direction-major and the owned-plane kernel calls dispatch to the
	// *SoA variants. Everything that crosses the wire or persists —
	// halos, frames, migration payloads, checkpoints, gather — stays in
	// canonical cell-major order; the pack/unpack paths transpose at the
	// plane boundary, so byte counts and artifacts are layout-invariant.
	soa   bool
	f     []*field.Slab // per component, Q = 19
	n     []*field.Slab // per component, Q = 1
	fPost []*field.Slab
	pred  predict.Predictor
	res   *Result

	// sc is the rank's collision scratch (one suffices: a rank's
	// planes are updated sequentially).
	sc *lbm.Scratch
	// fView.win[i][c] etc. are per-plane component views of the slabs
	// (index i is local, gx-start), maintained incrementally when the
	// owned range changes so neither the phase hot loop nor remapping
	// allocates in the steady state.
	fView, nView, postView planeViews
	// packL/packR are the reusable halo/frame send buffers; ghostHdrL/R
	// the reusable per-component ghost-view headers.
	packL, packR         []float64
	ghostHdrL, ghostHdrR [][]float64

	// Wire-compression staging (Options.WireF32): grow-only packed
	// float32 send buffers and the unpacked receive buffers the ghost
	// views point into. Halo receives reuse rawRecvL/R — safe because a
	// phase's density ghosts are dead before its distribution halo
	// arrives — while received frames keep their own buffers (their
	// views live until the redundant ghost collide, across the thin-slab
	// follow-up receive).
	wireSendL, wireSendR []float64
	rawRecvL, rawRecvR   []float64
	rawFrameL, rawFrameR []float64

	// Coalesced-mode reusable state, allocated on first use. The *Hdr
	// and ghostFar headers point into a received frame; ghostN are
	// owned ghost density planes (filled from a wide frame's edge
	// plane); ghostNView selects between them per side and kind;
	// ghostPost are the owned outputs of the redundant ghost collides.
	frameHdrL, frameHdrR     [][]float64
	ghostFarL, ghostFarR     [][]float64
	ghostNL, ghostNR         [][]float64
	ghostNViewL, ghostNViewR [][]float64
	ghostPostL, ghostPostR   [][]float64
	thinL, thinR             bool // incoming frame kinds this phase

	// Migration reusable state: the grow-only pack buffer and header
	// scratch, and the plane pools received planes are copied into so
	// slabs never alias a transport receive buffer.
	migBuf     []float64
	migHdr     [][]float64
	poolDist   [][]float64
	poolScalar [][]float64
}

// rebuildViews refreshes the cached per-plane component views from
// scratch after the slabs' owned range was re-created (init, recovery);
// remapping maintains them incrementally.
func (w *worker) rebuildViews() {
	w.fView.reset(w.f)
	w.nView.reset(w.n)
	w.postView.reset(w.fPost)
}

// fAt/nAt/postAt return the cached per-component plane views at
// global x.
func (w *worker) fAt(gx int) [][]float64    { return w.fView.win[gx-w.f[0].Start] }
func (w *worker) nAt(gx int) [][]float64    { return w.nView.win[gx-w.n[0].Start] }
func (w *worker) postAt(gx int) [][]float64 { return w.postView.win[gx-w.fPost[0].Start] }

// viewOrGhost resolves the cached views at gx, substituting the ghost
// planes outside the owned range [start, end).
func viewOrGhost(views [][][]float64, gx, start, end int, ghostL, ghostR [][]float64) [][]float64 {
	switch {
	case gx < start:
		return ghostL
	case gx >= end:
		return ghostR
	default:
		return views[gx-start]
	}
}

// ghostOr is viewOrGhost for streaming inputs: owned planes become full
// descriptors (marked SoA when the rank stores them direction-major),
// out-of-range planes the given (possibly slim, always canonical)
// ghosts.
func ghostOr(views [][][]float64, gx, start, end int, gL, gR lbm.Ghost, soa bool) lbm.Ghost {
	switch {
	case gx < start:
		return gL
	case gx >= end:
		return gR
	default:
		return lbm.Ghost{Planes: views[gx-start], SoA: soa}
	}
}

// densities, collide, and stream dispatch the owned-plane kernel calls
// to the AoS or SoA variant according to the rank's layout. Ghost-plane
// work (the coalesced protocol's redundant ghost collide) deliberately
// does NOT go through these: wire data is canonical, so it runs the
// plain AoS kernels regardless of layout.
func (w *worker) densities(f, n [][]float64) {
	if w.soa {
		w.k.DensitiesSoA(f, n)
		return
	}
	w.k.Densities(f, n)
}

func (w *worker) collide(nL, nC, nR, fC, out [][]float64) {
	if w.soa {
		w.k.CollideScratchSoA(w.sc, nL, nC, nR, fC, out)
		return
	}
	w.k.CollideScratch(w.sc, nL, nC, nR, fC, out)
}

func (w *worker) stream(fL lbm.Ghost, fC [][]float64, fR lbm.Ghost, out [][]float64) {
	if w.soa {
		w.k.StreamGhostSoA(fL, fC, fR, out)
		return
	}
	w.k.StreamGhost(fL, fC, fR, out)
}

// RunRank executes the phases for one rank. All ranks of the group must
// call it with identical parameters and options. When opts carries a
// Ctx or WallLimit, the rank builds its own supervisor — sound for a
// single-rank group; a multi-rank group must instead share ONE
// supervisor across all ranks (the RunParallel family does this
// internally, custom stackers use RunRankSupervised), because the
// orderly stop protocol agrees on a common boundary through shared
// supervisor state.
func RunRank(p *lbm.Params, c comm.Comm, opts Options) (*Result, error) {
	var sup *runctl.Supervisor
	if opts.Ctx != nil || opts.WallLimit > 0 {
		sup = runctl.NewSupervisor(opts.Ctx, opts.WallLimit)
	}
	return runRank(p, c, opts, sup)
}

// RunRankSupervised is RunRank under an externally owned supervisor:
// the entry point for group runners that stack their own wrappers. All
// ranks of the group must share the same supervisor instance (its
// stop-phase agreement lives there), and should also wrap their
// endpoints with comm.WithSupervision(ep, sup.HardErr, sup.Poll()) so
// blocked receives unwind on a hard abort. A nil supervisor runs
// unsupervised.
func RunRankSupervised(p *lbm.Params, c comm.Comm, opts Options, sup *runctl.Supervisor) (*Result, error) {
	return runRank(p, c, opts, sup)
}

func runRank(p *lbm.Params, c comm.Comm, opts Options, sup *runctl.Supervisor) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if opts.Phases < 1 {
		return nil, fmt.Errorf("parlbm: phases %d < 1", opts.Phases)
	}
	if p.NX < c.Size() {
		return nil, fmt.Errorf("parlbm: %d planes cannot cover %d ranks", p.NX, c.Size())
	}
	if ck := opts.Checkpoint; ck != nil {
		if ck.Dir == "" || ck.Interval < 1 {
			return nil, fmt.Errorf("parlbm: checkpoint dir %q interval %d invalid", ck.Dir, ck.Interval)
		}
		if s := ck.Snapshot; s != nil {
			if s.NX != p.NX || s.NComp != p.NComp() || s.PlaneSize != p.NY*p.NZ*19 {
				return nil, fmt.Errorf("parlbm: snapshot lattice %dx%dx%d does not match params", s.NX, s.NComp, s.PlaneSize)
			}
			if sp := s.Params; sp != nil && sp.Precision != p.Precision {
				return nil, fmt.Errorf("parlbm: snapshot precision %v does not match params precision %v: %w",
					sp.Precision, p.Precision, checkpoint.ErrPrecision)
			}
			if s.Phase >= opts.Phases {
				return nil, fmt.Errorf("parlbm: snapshot phase %d >= run phases %d", s.Phase, opts.Phases)
			}
		}
	}
	w := &worker{
		p: p, k: lbm.NewKernel(p), c: c, opts: opts, sup: sup,
		rank: c.Rank(), size: c.Size(), soa: p.Layout == lbm.SoA,
		res: &Result{Rank: c.Rank()},
	}
	w.sc = w.k.NewScratch()
	w.ghostHdrL = make([][]float64, p.NComp())
	w.ghostHdrR = make([][]float64, p.NComp())
	hk := 1
	if opts.Policy != nil {
		hk = opts.Policy.HistoryK()
	}
	w.pred = predict.NewHarmonicMean(hk)

	part := decomp.Even(p.NX, w.size)
	start, end := part.Range(w.rank)
	nc := p.NComp()
	w.f = make([]*field.Slab, nc)
	w.n = make([]*field.Slab, nc)
	w.fPost = make([]*field.Slab, nc)
	startPhase := 0
	var snap *checkpoint.RunSnapshot
	if opts.Checkpoint != nil && opts.Checkpoint.Snapshot != nil {
		snap = opts.Checkpoint.Snapshot
		startPhase = snap.Phase
	}
	layout := field.AoS
	if w.soa {
		layout = field.SoA
	}
	cells := p.NY * p.NZ
	for comp := 0; comp < nc; comp++ {
		w.f[comp] = field.NewSlabLayout(p.NY, p.NZ, 19, start, end-start, layout)
		w.fPost[comp] = field.NewSlabLayout(p.NY, p.NZ, 19, start, end-start, layout)
		w.n[comp] = field.NewSlab(p.NY, p.NZ, 1, start, end-start)
		for gx := start; gx < end; gx++ {
			switch {
			case snap != nil && w.soa:
				// Snapshot planes are canonical; transpose into the
				// rank's direction-major storage.
				field.TransposeToSoA(w.f[comp].Plane(gx), snap.Plane(comp, gx), cells, 19)
			case snap != nil:
				copy(w.f[comp].Plane(gx), snap.Plane(comp, gx))
			case w.soa:
				w.k.InitEquilibriumSoA(w.f[comp].Plane(gx), p.InitDensityAt(comp, gx))
			default:
				w.k.InitEquilibrium(w.f[comp].Plane(gx), p.InitDensityAt(comp, gx))
			}
		}
	}
	w.rebuildViews()
	w.res.StartPhase = startPhase

	interval := 0
	if opts.Policy != nil {
		interval = opts.Policy.Interval()
	}
	ckInterval := 0
	if opts.Checkpoint != nil {
		ckInterval = opts.Checkpoint.Interval
	}
	for phase := startPhase; phase < opts.Phases; phase++ {
		// A hard abort (a peer's panic, an escalated stall) unwinds the
		// rank immediately: the state behind it is not trusted, so no
		// checkpoint is attempted.
		if err := sup.HardErr(); err != nil {
			return nil, fmt.Errorf("parlbm: rank %d aborted before phase %d: %w", w.rank, phase, err)
		}
		if err := w.phase(phase); err != nil {
			return nil, fmt.Errorf("parlbm: rank %d phase %d: %w", w.rank, phase, err)
		}
		if interval > 0 && (phase+1)%interval == 0 && phase+1 < opts.Phases {
			if err := w.remap(); err != nil {
				return nil, fmt.Errorf("parlbm: rank %d remap after phase %d: %w", w.rank, phase, err)
			}
		}
		// Checkpoint after the remap so the persisted ownership map is
		// the one the next phase runs with.
		ckHere := false
		if ckInterval > 0 && (phase+1)%ckInterval == 0 && phase+1 < opts.Phases {
			if err := w.checkpointPhase(phase + 1); err != nil {
				return nil, fmt.Errorf("parlbm: rank %d checkpoint after phase %d: %w", w.rank, phase, err)
			}
			ckHere = true
		}
		// Orderly stop: a rank observing a soft cause (cancel, wall
		// limit) proposes stopping `size` phases past its own boundary —
		// provably ahead of every peer, since the ring's halo coupling
		// bounds the phase skew below the group size — and the shared
		// CAS-min picks one common boundary. Every rank keeps exchanging
		// halos until it reaches that boundary, so the group arrives in
		// lockstep, writes one coordinated interrupt checkpoint there,
		// and unwinds with the typed cause.
		completed := phase + 1
		if err := sup.Err(); err != nil && runctl.IsInterrupt(err) {
			sup.ProposeStop(completed + w.size)
		}
		if stop := sup.StopPhase(); completed >= stop && completed < opts.Phases {
			cause := sup.Err()
			checkpointed := ckHere
			if !ckHere && w.opts.Checkpoint != nil {
				if err := w.checkpointPhase(completed); err != nil {
					return nil, fmt.Errorf("parlbm: rank %d interrupt checkpoint at phase %d: %w", w.rank, completed, err)
				}
				checkpointed = true
			}
			w.res.Interrupted = &Interruption{Cause: cause, Phase: completed, Checkpointed: checkpointed}
			w.fillStats()
			return w.res, fmt.Errorf("parlbm: rank %d interrupted after phase %d: %w", w.rank, completed, cause)
		}
	}
	if err := w.gather(); err != nil {
		return nil, fmt.Errorf("parlbm: rank %d gather: %w", w.rank, err)
	}
	w.fillStats()
	return w.res, nil
}

// fillStats copies the rank's final slab range and wire byte counters
// into its result (shared by the completion and orderly-interrupt
// paths).
func (w *worker) fillStats() {
	w.res.FinalStart = w.f[0].Start
	w.res.FinalCount = w.f[0].Count()
	w.res.Comm.Bytes = w.res.Breakdown.Bytes
}

// neighbors returns the ring neighbors for halo exchange (the domain is
// periodic along x).
func (w *worker) neighbors() (left, right int) {
	return (w.rank - 1 + w.size) % w.size, (w.rank + 1) % w.size
}

// distSlim reports whether the distribution halo uses the slim
// crossing-populations wire format.
func (w *worker) distSlim() bool { return !w.opts.WideHalo }

// wireF32 reports whether bulk payloads ship as packed float32 words.
func (w *worker) wireF32() bool { return w.opts.WireF32 || w.p.Precision == lbm.F32 }

// sendWire ships payload to rank `to`, packing it into the grow-only
// staging buffer when wire compression is on; the byte class counts
// what actually crosses the wire. The transport copies on send, so the
// staging buffer is immediately reusable.
func (w *worker) sendWire(to, tag int, payload []float64, staging *[]float64, class *profile.TagBytes) error {
	if w.wireF32() {
		*staging = num.PackF32Words(*staging, payload)
		payload = *staging
	}
	class.CountSend(8 * len(payload))
	return w.c.Send(to, tag, payload)
}

// recvWire blocks for a payload of logical length n from rank `from`,
// unpacking compressed words into the staging buffer; `what` names the
// payload in size-mismatch errors. The returned slice is valid until
// the same staging buffer is reused.
func (w *worker) recvWire(from, tag, n int, what string, staging *[]float64, class *profile.TagBytes) ([]float64, error) {
	msg, err := w.c.Recv(from, tag)
	if err != nil {
		return nil, err
	}
	class.CountRecv(8 * len(msg))
	if !w.wireF32() {
		if len(msg) != n {
			return nil, fmt.Errorf("%s size %d, want %d", what, len(msg), n)
		}
		return msg, nil
	}
	if len(msg) != num.PackedWords(n) {
		return nil, fmt.Errorf("packed %s size %d, want %d", what, len(msg), num.PackedWords(n))
	}
	*staging = num.UnpackF32Words(*staging, msg, n)
	return *staging, nil
}

// packPlanes concatenates the given global-x plane of every component
// of the slabs into buf, reusing its capacity when possible, and
// returns the (possibly grown) buffer. The steady-state halo exchange
// therefore sends from two per-worker buffers instead of allocating a
// fresh one per exchange. SoA distribution planes are transposed into
// the canonical cell-major wire order during the copy, so the payload
// bytes are identical between layouts.
func packPlanes(buf []float64, slabs []*field.Slab, gx int) []float64 {
	sz := slabs[0].PlaneSize()
	need := sz * len(slabs)
	if cap(buf) < need {
		buf = make([]float64, need)
	}
	buf = buf[:need]
	if slabs[0].Layout == field.SoA && slabs[0].Q > 1 {
		cells := slabs[0].NY * slabs[0].NZ
		for c, s := range slabs {
			field.TransposeToAoS(buf[c*sz:(c+1)*sz], s.Plane(gx), cells, s.Q)
		}
		return buf
	}
	for c, s := range slabs {
		copy(buf[c*sz:(c+1)*sz], s.Plane(gx))
	}
	return buf
}

// packCrossing packs the slim halo of the given global-x distribution
// plane into buf: per component, per cell, the lattice.CrossQ
// populations listed in dirs (RightGoing for a halo sent rightward,
// LeftGoing for leftward), laid out as slim[cell*CrossQ+j] =
// plane[cell*Q19+dirs[j]] — exactly the layout lbm.Ghost{Slim: true}
// consumes without unpacking.
func packCrossing(buf []float64, slabs []*field.Slab, gx int, dirs *[5]int) []float64 {
	cells := slabs[0].NY * slabs[0].NZ
	per := cells * lattice.CrossQ
	need := per * len(slabs)
	if cap(buf) < need {
		buf = make([]float64, need)
	}
	buf = buf[:need]
	if slabs[0].Layout == field.SoA {
		// Direction-major source: gather each crossing population from
		// its contiguous lane. The wire bytes are identical to the AoS
		// gather below — slim order is canonical either way.
		for c, s := range slabs {
			plane := s.Plane(gx)
			out := buf[c*per : (c+1)*per]
			l0 := plane[dirs[0]*cells : (dirs[0]+1)*cells]
			l1 := plane[dirs[1]*cells : (dirs[1]+1)*cells]
			l2 := plane[dirs[2]*cells : (dirs[2]+1)*cells]
			l3 := plane[dirs[3]*cells : (dirs[3]+1)*cells]
			l4 := plane[dirs[4]*cells : (dirs[4]+1)*cells]
			for cell := 0; cell < cells; cell++ {
				o := cell * lattice.CrossQ
				out[o] = l0[cell]
				out[o+1] = l1[cell]
				out[o+2] = l2[cell]
				out[o+3] = l3[cell]
				out[o+4] = l4[cell]
			}
		}
		return buf
	}
	for c, s := range slabs {
		plane := s.Plane(gx)
		out := buf[c*per : (c+1)*per]
		for cell := 0; cell < cells; cell++ {
			b := cell * lattice.Q19
			o := cell * lattice.CrossQ
			out[o] = plane[b+dirs[0]]
			out[o+1] = plane[b+dirs[1]]
			out[o+2] = plane[b+dirs[2]]
			out[o+3] = plane[b+dirs[3]]
			out[o+4] = plane[b+dirs[4]]
		}
	}
	return buf
}

// postHalos packs and sends the boundary planes of slabs to both ring
// neighbors under the direction-distinct tag pair. Sends are buffered
// (never block), so posting the halos before computing interior planes
// overlaps the exchange with compute.
func (w *worker) postHalos(slabs []*field.Slab, tagL, tagR int, slim bool, class *profile.TagBytes) error {
	start, end := slabs[0].Start, slabs[0].End()
	left, right := w.neighbors()
	if slim {
		w.packL = packCrossing(w.packL, slabs, start, &lattice.LeftGoing)
		w.packR = packCrossing(w.packR, slabs, end-1, &lattice.RightGoing)
	} else {
		w.packL = packPlanes(w.packL, slabs, start)
		w.packR = packPlanes(w.packR, slabs, end-1)
	}
	if err := w.sendWire(left, tagL, w.packL, &w.wireSendL, class); err != nil {
		return err
	}
	return w.sendWire(right, tagR, w.packR, &w.wireSendR, class)
}

// recvHalos blocks for both neighbors' ghost planes (per is the
// expected per-component payload length) and returns them unpacked per
// component through the worker's reusable view headers: ghostL
// corresponds to global x start-1, ghostR to end.
func (w *worker) recvHalos(per, tagL, tagR int, class *profile.TagBytes) (ghostL, ghostR [][]float64, err error) {
	nc := len(w.ghostHdrL)
	left, right := w.neighbors()
	fromL, err := w.recvWire(left, tagR, nc*per, "halo", &w.rawRecvL, class) // the left neighbor's rightward halo
	if err != nil {
		return nil, nil, err
	}
	fromR, err := w.recvWire(right, tagL, nc*per, "halo", &w.rawRecvR, class)
	if err != nil {
		return nil, nil, err
	}
	for c := 0; c < nc; c++ {
		w.ghostHdrL[c] = fromL[c*per : (c+1)*per]
		w.ghostHdrR[c] = fromR[c*per : (c+1)*per]
	}
	return w.ghostHdrL, w.ghostHdrR, nil
}

// exchangeDensityHalos posts the boundary density planes to both
// neighbors and blocks for the received ghosts (the non-overlapped
// pattern: post and immediately wait). A single rank wraps locally.
func (w *worker) exchangeDensityHalos() (ghostL, ghostR [][]float64, err error) {
	if w.size == 1 {
		start, end := w.n[0].Start, w.n[0].End()
		for c := range w.n {
			w.ghostHdrL[c] = w.n[c].Plane(end - 1)
			w.ghostHdrR[c] = w.n[c].Plane(start)
		}
		return w.ghostHdrL, w.ghostHdrR, nil
	}
	if err := w.postDensityHalos(); err != nil {
		return nil, nil, err
	}
	return w.recvDensityHalos()
}

func (w *worker) postDensityHalos() error {
	return w.postHalos(w.n, tagDensHaloL, tagDensHaloR, false, &w.res.Breakdown.Bytes.DensityHalo)
}

func (w *worker) recvDensityHalos() ([][]float64, [][]float64, error) {
	return w.recvHalos(w.n[0].PlaneSize(), tagDensHaloL, tagDensHaloR, &w.res.Breakdown.Bytes.DensityHalo)
}

// exchangeDistHalos is the distribution-function analogue; the ghosts
// come back as streaming descriptors because the slim format is
// consumed in place by the kernel.
func (w *worker) exchangeDistHalos() (ghostL, ghostR lbm.Ghost, err error) {
	if w.size == 1 {
		// The wrap points at the rank's own post-collision planes, so
		// the ghost layout follows the rank's storage layout.
		start, end := w.fPost[0].Start, w.fPost[0].End()
		for c := range w.fPost {
			w.ghostHdrL[c] = w.fPost[c].Plane(end - 1)
			w.ghostHdrR[c] = w.fPost[c].Plane(start)
		}
		return lbm.Ghost{Planes: w.ghostHdrL, SoA: w.soa}, lbm.Ghost{Planes: w.ghostHdrR, SoA: w.soa}, nil
	}
	if err := w.postDistHalos(); err != nil {
		return lbm.Ghost{}, lbm.Ghost{}, err
	}
	return w.recvDistHalos()
}

func (w *worker) postDistHalos() error {
	return w.postHalos(w.fPost, tagDistHaloL, tagDistHaloR, w.distSlim(), &w.res.Breakdown.Bytes.DistHalo)
}

func (w *worker) recvDistHalos() (lbm.Ghost, lbm.Ghost, error) {
	per := w.fPost[0].PlaneSize()
	if w.distSlim() {
		per = w.k.PlaneCells() * lattice.CrossQ
	}
	hL, hR, err := w.recvHalos(per, tagDistHaloL, tagDistHaloR, &w.res.Breakdown.Bytes.DistHalo)
	if err != nil {
		return lbm.Ghost{}, lbm.Ghost{}, err
	}
	return lbm.Ghost{Planes: hL, Slim: w.distSlim()}, lbm.Ghost{Planes: hR, Slim: w.distSlim()}, nil
}

// phase runs one LBM phase: densities, density-halo exchange, collide,
// distribution-halo exchange, stream. With Options.Coalesce (and more
// than one rank) the two exchanges merge into one frame per neighbor;
// with Options.Overlap it dispatches to the overlapped variant.
func (w *worker) phase(phase int) error {
	if w.opts.PhaseHook != nil {
		w.opts.PhaseHook(w.rank, phase)
	}
	if w.opts.Coalesce && w.size > 1 {
		return w.phaseCoalesced(phase)
	}
	if w.opts.Overlap && w.size > 1 {
		return w.phaseOverlap(phase)
	}
	start, end := w.f[0].Start, w.f[0].End()

	tComp := time.Now()
	// Densities for owned planes.
	for gx := start; gx < end; gx++ {
		w.densities(w.fAt(gx), w.nAt(gx))
	}
	compDur := time.Since(tComp).Seconds()

	tComm := time.Now()
	nGhostL, nGhostR, err := w.exchangeDensityHalos()
	if err != nil {
		return err
	}
	commDur := time.Since(tComm).Seconds()

	tComp = time.Now()
	for gx := start; gx < end; gx++ {
		nL := viewOrGhost(w.nView.win, gx-1, start, end, nGhostL, nGhostR)
		nR := viewOrGhost(w.nView.win, gx+1, start, end, nGhostL, nGhostR)
		w.collide(nL, w.nAt(gx), nR, w.fAt(gx), w.postAt(gx))
	}
	compDur += time.Since(tComp).Seconds()

	tComm = time.Now()
	fGhostL, fGhostR, err := w.exchangeDistHalos()
	if err != nil {
		return err
	}
	commDur += time.Since(tComm).Seconds()

	tComp = time.Now()
	for gx := start; gx < end; gx++ {
		fL := ghostOr(w.postView.win, gx-1, start, end, fGhostL, fGhostR, w.soa)
		fR := ghostOr(w.postView.win, gx+1, start, end, fGhostL, fGhostR, w.soa)
		w.stream(fL, w.postAt(gx), fR, w.fAt(gx))
	}
	compDur += time.Since(tComp).Seconds()

	return w.finishPhase(phase, compDur, commDur, 0)
}

// phaseOverlap is phase with comm/compute overlap: boundary planes are
// computed first and their halos posted, the interior is computed
// while the exchange is in flight, and only then does the rank block
// on the ghosts and finish the edge planes. Every plane goes through
// the identical kernel arithmetic, only the order changes — and plane
// updates are independent within a sub-phase — so the results are
// bit-identical to the non-overlapped solver.
func (w *worker) phaseOverlap(phase int) error {
	start, end := w.f[0].Start, w.f[0].End()
	var compDur, commDur, ovDur float64

	// Densities: edges first, halos on the wire, interior overlapped.
	t := time.Now()
	w.densities(w.fAt(start), w.nAt(start))
	if end-1 > start {
		w.densities(w.fAt(end-1), w.nAt(end-1))
	}
	compDur += time.Since(t).Seconds()
	t = time.Now()
	if err := w.postDensityHalos(); err != nil {
		return err
	}
	commDur += time.Since(t).Seconds()
	t = time.Now()
	for gx := start + 1; gx < end-1; gx++ {
		w.densities(w.fAt(gx), w.nAt(gx))
	}
	d := time.Since(t).Seconds()
	compDur += d
	ovDur += d
	t = time.Now()
	nGhostL, nGhostR, err := w.recvDensityHalos()
	if err != nil {
		return err
	}
	commDur += time.Since(t).Seconds()

	// Collide: edge planes need the ghosts and produce the next
	// exchange's boundary data, so they go first; the interior
	// overlaps the distribution-halo exchange.
	t = time.Now()
	w.collide(nGhostL, w.nAt(start),
		viewOrGhost(w.nView.win, start+1, start, end, nGhostL, nGhostR),
		w.fAt(start), w.postAt(start))
	if end-1 > start {
		w.collide(
			viewOrGhost(w.nView.win, end-2, start, end, nGhostL, nGhostR),
			w.nAt(end-1), nGhostR, w.fAt(end-1), w.postAt(end-1))
	}
	compDur += time.Since(t).Seconds()
	t = time.Now()
	if err := w.postDistHalos(); err != nil {
		return err
	}
	commDur += time.Since(t).Seconds()
	t = time.Now()
	for gx := start + 1; gx < end-1; gx++ {
		w.collide(w.nAt(gx-1), w.nAt(gx), w.nAt(gx+1), w.fAt(gx), w.postAt(gx))
	}
	d = time.Since(t).Seconds()
	compDur += d
	ovDur += d
	t = time.Now()
	fGhostL, fGhostR, err := w.recvDistHalos()
	if err != nil {
		return err
	}
	commDur += time.Since(t).Seconds()

	// Stream: no further exchange to overlap; sweep every plane.
	t = time.Now()
	for gx := start; gx < end; gx++ {
		fL := ghostOr(w.postView.win, gx-1, start, end, fGhostL, fGhostR, w.soa)
		fR := ghostOr(w.postView.win, gx+1, start, end, fGhostL, fGhostR, w.soa)
		w.stream(fL, w.postAt(gx), fR, w.fAt(gx))
	}
	compDur += time.Since(t).Seconds()

	return w.finishPhase(phase, compDur, commDur, ovDur)
}

// finishPhase runs the shared phase epilogue: throttling, time
// accounting, the phase-time observation feeding the remap predictor,
// and the PostPhase invariant hook.
func (w *worker) finishPhase(phase int, compDur, commDur, ovDur float64) error {
	planes := w.f[0].Count()
	if w.opts.Throttle != nil {
		t := time.Now()
		w.opts.Throttle(w.rank, planes, phase)
		compDur += time.Since(t).Seconds()
	}
	w.res.Breakdown.Computation += compDur
	w.res.Breakdown.Communication += commDur
	w.res.Breakdown.Overlap += ovDur

	measured := compDur
	if w.opts.PhaseTime != nil {
		measured = w.opts.PhaseTime(w.rank, planes, phase)
	}
	if planes > 0 {
		w.pred.Observe(measured / float64(planes))
	}
	if w.opts.PostPhase != nil {
		nc := len(w.f)
		mass := make([]float64, nc)
		for c := 0; c < nc; c++ {
			var sum float64
			for _, plane := range w.f[c].Planes {
				for _, v := range plane {
					sum += v
				}
			}
			mass[c] = sum * w.p.Components[c].Mass
		}
		if err := w.opts.PostPhase(w.rank, phase, planes, mass); err != nil {
			return fmt.Errorf("invariant check: %w", err)
		}
	}
	return nil
}
