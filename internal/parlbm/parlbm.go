// Package parlbm is the domain-decomposed parallel LBM solver: the
// distributed counterpart of the paper's Figure 2 pseudo-code. Each
// rank owns a contiguous slab of x-planes, exchanges one frame with
// each ring neighbor every phase, runs the sequential solver's fused
// collide+stream sweep over its slab, and every REMAPPING_INTERVAL
// phases runs the distributed remapping protocol: load-index exchange
// with chain neighbors, local decisions (package balance), pairwise
// conflict resolution, and lattice-plane migration.
//
// The kernels are shared with the sequential solver (package lbm), so a
// parallel run reproduces the sequential result bit-for-bit — including
// runs whose partition changes mid-flight.
//
// # Frame protocol
//
// A phase's two data dependencies on a neighbor — its edge densities
// for the psi-gradient, and its post-collision edge populations for
// streaming — are both met by one frame per neighbor, posted at phase
// start: the sender's pre-collision edge plane plus the densities of
// the plane behind it. The receiver recomputes the ghost density from
// the edge plane and collides the ghost plane redundantly inside its
// own sweep (lbm.KernelOf.SweepFused, exactly as a band of the
// sequential solver does with its neighbours' in-memory frames), which
// is bit-identical because every input is bit-identical and the
// kernels are deterministic. A frame therefore needs the plane behind
// the edge: every slab keeps at least MinSlabPlanes planes. See
// README.md for the wire layout.
//
// Options.WireF32 (implied when Params.Precision selects the float32
// core) ships every bulk payload — frames and migrating lattice planes —
// as packed float32: two values per transported float64 word, halving
// both wire classes at a ~1e-7 relative rounding per transported value.
// Control, load-index, and gather traffic stays float64. Compressed runs
// are deterministic but deliberately not bit-identical to the
// sequential solver.
package parlbm

import (
	"context"
	"fmt"
	"time"

	"microslip/internal/balance"
	"microslip/internal/checkpoint"
	"microslip/internal/comm"
	"microslip/internal/field"
	"microslip/internal/lbm"
	"microslip/internal/num"
	"microslip/internal/profile"
	"microslip/internal/runctl"
)

// Message tags. Frames are tagged by the direction they travel: tagFrameL
// marks a frame sent toward the sender's left neighbor, tagFrameR toward
// its right. Direction-distinct tags matter on two ranks, where both
// neighbors are the same peer and a shared tag would make the two
// opposite-facing frames indistinguishable (FIFO delivery would hand the
// peer's left-bound edge to the right ghost and vice versa — invisible
// on x-uniform fields, wrong on everything else).
const (
	tagLoadInfo    = 3
	tagDesire      = 4
	tagPlanesLeft  = 5
	tagPlanesRight = 6
	tagGather      = 7
	tagFrameL      = 10
	tagFrameR      = 11
)

// MinSlabPlanes is the fewest planes a rank may own: its frames carry
// its edge plane and the densities of the plane behind it.
const MinSlabPlanes = lbm.MinFramePlanes

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
	// Policy is the remapping scheme; the zero Policy never remaps.
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
	// current plane count and a function computing its per-component
	// local mass (a pass over the slab, paid only when called); a
	// non-nil return aborts the run. It is an invariant-checking and
	// progress hook and costs nothing when unset.
	PostPhase func(rank, phase, planes int, mass func() []float64) error
	// Checkpoint, when non-nil, enables coordinated distributed
	// checkpointing (and, with a Snapshot, resuming).
	Checkpoint *CheckpointSpec
	// WireF32 ships the bulk payloads — frames and migrating lattice
	// planes — as packed float32 (two values per float64 wire word),
	// halving those wire classes at a ~1e-7 relative rounding per
	// transported value; control, load-index, and gather traffic stays
	// float64. Runs remain deterministic but are no longer
	// bit-identical to the sequential solver. Implied when
	// Params.Precision selects the float32 core, where frame values
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
	// on rank 0 of a gathering run (RunParallel, RunParallelTCP); nil
	// on other ranks and in RunParallelReduced.
	Final []*field.Dist3D
	// Mass is the rank's share of the final per-component mass — its
	// populations summed in one pass after the last phase, times the
	// component's particle mass. A NaN anywhere in the slab makes it
	// NaN.
	Mass []float64
	// Profile is the streamwise velocity u_x along y at x = NX/2,
	// z = NZ/2 — computed with lbm.KernelOf.CellVelocity, as the
	// sequential solver's VelocityProfileY — on the rank owning plane
	// NX/2; nil on the others.
	Profile []float64
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
	// not gathered and Mass and Profile stay nil in that case.
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

// SlabFloorError reports a remapping round that would leave a rank
// with fewer than MinSlabPlanes planes; the run fails with it instead
// of running a slab that cannot build its frames. Policy.Validate
// already refuses a policy that keeps fewer, so this guards the plan
// arithmetic, not a configuration.
type SlabFloorError struct {
	// Rank is the rank whose slab would shrink below the floor, and
	// Planes its plane count after the round.
	Rank, Planes int
}

func (e *SlabFloorError) Error() string {
	return fmt.Sprintf("parlbm: remap would leave rank %d with %d planes, below the %d-plane floor",
		e.Rank, e.Planes, MinSlabPlanes)
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
	f    []*field.Slab // per component, Q = 19
	pred balance.Predictor
	res  *Result

	// slab is the rank's slab step, the one a band of the sequential
	// solver runs; it is rebound every phase through plane (owned plane
	// i of component c), so migration only changes the slabs.
	slab  *lbm.SlabSweep
	plane func(i, c int) []float64
	// massFn is localMass bound once, so handing it to PostPhase every
	// phase allocates nothing.
	massFn               func() []float64
	wireSendL, wireSendR []float64 // packed-float32 staging (WireF32)
	rawRecvL, rawRecvR   []float64 // unpacked receive buffers (WireF32)

	// pool is the group's free list of distribution planes, shared by
	// every rank: a plane that leaves this slab goes into it, and a
	// plane arriving here is copied out of the transport buffer into
	// one taken from it, so a slab never aliases memory the transport
	// may reuse and the group holds one lattice however planes move.
	pool *planePool
	// migBuf stages one plane message — a plane's components
	// concatenated — for migration and the gather; migHdr is the
	// one-entry header a received plane is pushed through, cleared
	// right after so it never keeps a departed plane reachable.
	migBuf []float64
	migHdr [1][]float64
}

// runRank executes the phases for one rank; all ranks of the group run
// it with identical parameters and options and share one supervisor
// (its stop-phase agreement lives there; nil runs unsupervised) and one
// plane pool. With gather, rank 0 collects the full fields into
// Result.Final.
func runRank(p *lbm.Params, c comm.Comm, opts Options, sup *runctl.Supervisor, pool *planePool, gather bool) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if opts.Phases < 1 {
		return nil, fmt.Errorf("parlbm: phases %d < 1", opts.Phases)
	}
	if err := opts.Policy.Validate(); err != nil {
		return nil, fmt.Errorf("parlbm: %w", err)
	}
	if p.NX < MinSlabPlanes*c.Size() {
		return nil, fmt.Errorf("parlbm: %d planes cannot give %d ranks %d planes each", p.NX, c.Size(), MinSlabPlanes)
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
	w := newWorker(p, c, opts, sup, pool)
	nc := p.NComp()
	part := balance.Even(p.NX, w.size)
	start, end := part.Range(w.rank)
	w.f = make([]*field.Slab, nc)
	startPhase := 0
	var snap *checkpoint.RunSnapshot
	if opts.Checkpoint != nil && opts.Checkpoint.Snapshot != nil {
		snap = opts.Checkpoint.Snapshot
		startPhase = snap.Phase
	}
	for comp := 0; comp < nc; comp++ {
		w.f[comp] = field.NewSlab(p.NY, p.NZ, 19, start, end-start)
		for gx := start; gx < end; gx++ {
			if snap != nil {
				copy(w.f[comp].Plane(gx), snap.Plane(comp, gx))
				w.k.ClearSolid(w.f[comp].Plane(gx))
			} else {
				w.k.InitEquilibrium(w.f[comp].Plane(gx), p.InitDensityAt(comp, gx))
			}
		}
	}
	w.res.StartPhase = startPhase

	interval := opts.Policy.Interval()
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
		// provably ahead of every peer, since the ring's frame coupling
		// bounds the phase skew below the group size — and the shared
		// CAS-min picks one common boundary. Every rank keeps exchanging
		// frames until it reaches that boundary, so the group arrives in
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
	w.res.Mass = w.localMass()
	w.res.Profile = w.midProfile()
	if gather {
		if err := w.gather(); err != nil {
			return nil, fmt.Errorf("parlbm: rank %d gather: %w", w.rank, err)
		}
	}
	w.fillStats()
	return w.res, nil
}

// newWorker builds rank c's worker state short of its slabs.
func newWorker(p *lbm.Params, c comm.Comm, opts Options, sup *runctl.Supervisor, pool *planePool) *worker {
	w := &worker{
		p: p, k: lbm.NewKernel(p), c: c, opts: opts, sup: sup, pool: pool,
		rank: c.Rank(), size: c.Size(),
		res: &Result{Rank: c.Rank()},
	}
	w.slab = w.k.NewSlabSweep()
	w.plane = func(i, comp int) []float64 { return w.f[comp].Planes[i] }
	w.massFn = w.localMass
	w.pred = balance.NewHarmonicMean(opts.Policy.HistoryK())
	return w
}

// fillStats copies the rank's final slab range and wire byte counters
// into its result (shared by the completion and orderly-interrupt
// paths).
func (w *worker) fillStats() {
	w.res.FinalStart = w.f[0].Start
	w.res.FinalCount = w.f[0].Count()
	w.res.Comm.Bytes = w.res.Breakdown.Bytes
}

// localMass returns the rank's per-component mass: one pass summing
// its populations, times the component's particle mass.
func (w *worker) localMass() []float64 {
	mass := make([]float64, len(w.f))
	for c, s := range w.f {
		var sum float64
		for _, plane := range s.Planes {
			for _, v := range plane {
				sum += v
			}
		}
		mass[c] = sum * w.p.Components[c].Mass
	}
	return mass
}

// midProfile returns u_x(y) at x = NX/2, z = NZ/2 when this rank owns
// plane NX/2, nil otherwise.
func (w *worker) midProfile() []float64 {
	x := w.p.NX / 2
	if x < w.f[0].Start || x >= w.f[0].End() {
		return nil
	}
	planes := make([][]float64, len(w.f))
	for c, s := range w.f {
		planes[c] = s.Plane(x)
	}
	prof := make([]float64, w.p.NY)
	for y := range prof {
		prof[y], _, _ = w.k.CellVelocity(planes, y, w.p.NZ/2)
	}
	return prof
}

// neighbors returns the ring neighbors of the frame exchange (the
// domain is periodic along x).
func (w *worker) neighbors() (left, right int) {
	return (w.rank - 1 + w.size) % w.size, (w.rank + 1) % w.size
}

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
// the same staging buffer (or, uncompressed, the same tag) is reused.
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

// phase runs one LBM phase: post a frame to each neighbor, take theirs
// as the ghost planes, then one fused sweep over the slab that collides
// the ghosts redundantly and streams the owned planes.
func (w *worker) phase(phase int) error {
	if w.opts.PhaseHook != nil {
		w.opts.PhaseHook(w.rank, phase)
	}
	tComm := time.Now()
	if err := w.postFrames(); err != nil {
		return err
	}
	if err := w.recvFrames(); err != nil {
		return err
	}
	commDur := time.Since(tComm).Seconds()

	tComp := time.Now()
	w.slab.Sweep()
	compDur := time.Since(tComp).Seconds()

	return w.finishPhase(phase, compDur, commDur)
}

// finishPhase runs the shared phase epilogue: throttling, time
// accounting, the phase-time observation feeding the remap predictor,
// and the PostPhase hook.
func (w *worker) finishPhase(phase int, compDur, commDur float64) error {
	planes := w.f[0].Count()
	if w.opts.Throttle != nil {
		t := time.Now()
		w.opts.Throttle(w.rank, planes, phase)
		compDur += time.Since(t).Seconds()
	}
	w.res.Breakdown.Computation += compDur
	w.res.Breakdown.Communication += commDur

	measured := compDur
	if w.opts.PhaseTime != nil {
		measured = w.opts.PhaseTime(w.rank, planes, phase)
	}
	if planes > 0 {
		w.pred.Observe(measured / float64(planes))
	}
	if w.opts.PostPhase != nil {
		if err := w.opts.PostPhase(w.rank, phase, planes, w.massFn); err != nil {
			return fmt.Errorf("invariant check: %w", err)
		}
	}
	return nil
}
