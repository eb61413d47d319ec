package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"sync"
	"time"

	"microslip/internal/checkpoint"
	"microslip/internal/geometry"
	"microslip/internal/lbm"
	"microslip/internal/measure"
	"microslip/internal/parlbm"
	"microslip/internal/runctl"
	"microslip/internal/units"
)

// stateFileName is the sequential interrupt-state file inside a job's
// checkpoint directory (the container-v2 format of package checkpoint).
const stateFileName = "state.ckpt"

// runJob executes one dequeued job through its stages, recording the
// per-stage latencies on both the job status and the server metrics.
func (s *Server) runJob(j *job) {
	pickup := time.Now()
	queueWait := pickup.Sub(j.enqueuedAt)
	s.metrics.QueueWait.Observe(queueWait)

	// A job canceled (or drained) before it ever ran terminalizes
	// without touching a solver.
	if err := context.Cause(j.ctx); err != nil {
		j.mu.Lock()
		j.status.Stages.QueueWaitMS = ms(queueWait)
		j.mu.Unlock()
		state, cause := s.classify(j, fmt.Errorf("%w: stopped before start: %w", runctl.ErrCanceled, err))
		s.finish(j, state, cause, nil, false)
		return
	}

	j.mu.Lock()
	j.status.State = StateRunning
	j.status.StartedAt = &pickup
	j.status.Stages.QueueWaitMS = ms(queueWait)
	spec := j.status.Spec
	j.mu.Unlock()
	s.metrics.CountState(StateQueued, StateRunning)

	var (
		res      *Result
		runErr   error
		ckptDir  string
		schedule time.Duration
	)
	if s.cfg.Storage != nil {
		ckptDir, runErr = s.cfg.Storage.CheckpointDir(j.status.ID)
	}
	if runErr == nil {
		switch {
		case spec.Resume != "":
			res, schedule, runErr = s.runResumed(j, spec, ckptDir)
		case spec.Kind == KindDistributed:
			res, schedule, runErr = s.runDistributed(j, spec, ckptDir, nil, 0)
		default:
			res, schedule, runErr = s.runSequential(j, spec, ckptDir, nil, nil)
		}
	}
	s.metrics.Schedule.Observe(schedule)

	state, cause := s.classify(j, runErr)

	// Persist stage: interrupted sequential jobs write their state
	// through the checkpoint container so a resume job can continue
	// bit-identically; distributed jobs committed their coordinated
	// checkpoints inside the run, so only the status record remains.
	persistStart := time.Now()
	resumable := res != nil && res.CheckpointPhase >= 0
	if res != nil && res.CheckpointPhase < 0 {
		// -1 is the internal no-checkpoint sentinel; zero it so the
		// omitempty JSON field disappears instead of leaking -1.
		res.CheckpointPhase = 0
	}
	if res != nil && res.pendingState != nil {
		if ckptDir != "" {
			if saveErr := checkpoint.SaveFile(filepath.Join(ckptDir, stateFileName), res.pendingState); saveErr == nil {
				resumable = true
			}
		}
		res.pendingState = nil
	}
	if res != nil && res.pendingRefined != nil {
		if ckptDir != "" {
			if saveErr := checkpoint.SaveRefinedFile(filepath.Join(ckptDir, stateFileName), res.pendingRefined); saveErr == nil {
				resumable = true
			}
		}
		res.pendingRefined = nil
	}
	j.mu.Lock()
	j.status.Stages.ScheduleMS = ms(schedule)
	computeFrom := j.computeFrom
	if !computeFrom.IsZero() {
		j.status.Stages.ComputeMS = ms(persistStart.Sub(computeFrom))
	}
	j.status.Stages.PersistMS = ms(time.Since(persistStart))
	j.mu.Unlock()

	s.finish(j, state, cause, res, resumable)
	s.metrics.Persist.Observe(time.Since(persistStart))
	if !computeFrom.IsZero() {
		s.metrics.Compute.Observe(persistStart.Sub(computeFrom))
	}
}

// classify maps a run error onto the job's terminal state and the
// error to report: nil → done; an orderly interrupt is canceled when
// the client asked for it and interrupted when the server did (drain,
// wall limit); anything else failed.
func (s *Server) classify(j *job, runErr error) (State, error) {
	if runErr == nil {
		return StateDone, nil
	}
	if runctl.IsInterrupt(runErr) {
		cause := context.Cause(j.ctx)
		if cause != nil && errors.Is(cause, errClientCancel) {
			return StateCanceled, runErr
		}
		return StateInterrupted, runErr
	}
	return StateFailed, runErr
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// runSequential executes a wallforce or steady job on the sequential
// solver — uniform, or two-level refined when the spec carries a
// refinement descriptor — in StreamEvery-step chunks, publishing a
// progress frame per chunk. A non-nil resume (or resumeRef) state
// continues a previous job's run. It returns the (possibly partial)
// result, the schedule-stage duration, and the run error.
func (s *Server) runSequential(j *job, spec JobSpec, ckptDir string, resume *lbm.State, resumeRef *lbm.RefinedState) (*Result, time.Duration, error) {
	scheduleStart := time.Now()
	var (
		solver lbm.Stepper
		err    error
	)
	switch {
	case resumeRef != nil:
		solver, err = lbm.RefinedFromState(resumeRef)
	case resume != nil:
		solver, err = lbm.SolverFromState(resume)
	default:
		p := lbm.WaterAir(spec.NX, spec.NY, spec.NZ)
		p.Precision = spec.precision()
		if spec.Refine != nil {
			solver, err = lbm.NewRefined(p, *spec.Refine)
		} else {
			solver, err = lbm.NewSolver(p)
		}
	}
	if err != nil {
		return nil, time.Since(scheduleStart), err
	}
	if spec.Workers > 1 {
		solver.SetWorkers(spec.Workers)
	}
	sup := runctl.NewSupervisor(j.ctx, time.Duration(spec.WallLimitMS)*time.Millisecond)
	schedule := time.Since(scheduleStart)
	j.markCompute()

	p := solver.Params()
	start := solver.StepCount()
	target := start + spec.Steps
	every := s.cfg.StreamEvery
	checkEvery := spec.CheckEvery
	if checkEvery < 1 {
		checkEvery = spec.Steps / 20
	}
	if checkEvery < 1 {
		checkEvery = 1
	}
	res := &Result{StartStep: start, CheckpointPhase: -1}
	var runErr error
	// mass is the last frame's water mass: the final state's, since
	// nothing steps after the last frame, so the result reuses it
	// rather than making one more pass over the lattice.
	var mass float64
	sampled := false
	// Chunks are StreamEvery steps, but never shorter than the steady
	// sampling interval: capping checkEvery to the chunk would silently
	// sample the residual faster than asked, and short windows alias
	// the interface oscillations of the two-component field.
	limit := every
	if spec.Kind == KindSteady && checkEvery > limit {
		limit = checkEvery
	}
	for solver.StepCount() < target {
		chunk := target - solver.StepCount()
		if chunk > limit {
			chunk = limit
		}
		if spec.Kind == KindSteady {
			ce := checkEvery
			if ce > chunk {
				ce = chunk
			}
			var sr lbm.SteadyResult
			sr, runErr = lbm.RunToSteady(solver, sup, chunk, ce, spec.SteadyTol)
			// JSON carries only finite numbers, and a chunk stopped
			// before its first sample reports +Inf: keep the last
			// sampled residual (none yet leaves the field omitted).
			if r := sr.Residual; !math.IsInf(r, 0) && !math.IsNaN(r) {
				res.Residual = r
			}
			res.Converged = sr.Converged
		} else {
			_, runErr = solver.RunSupervised(chunk, sup)
		}
		res.Steps = solver.StepCount()
		mass, sampled = solver.TotalMass(0), true
		j.publish(Frame{Step: res.Steps, Residual: res.Residual, MassWater: mass})
		if runErr != nil || res.Converged {
			break
		}
	}
	if runErr == nil {
		if err := solver.CheckFinite(); err != nil {
			return res, schedule, err
		}
	}
	res.Steps = solver.StepCount()
	if !sampled {
		mass = solver.TotalMass(0)
	}
	res.MassWater = mass
	ux, _, _ := solver.Velocity(p.NX/2, p.NY/2, p.NZ/2)
	res.CenterVelocity = ux
	if spec.Kind == KindWallForce {
		res.SlipLengthNM = slipLengthNM(p, solver.VelocityProfileY(p.NX/2, p.NZ/2))
	}
	if rs, ok := solver.(lbm.RefinedSolver); ok {
		if refined, fineEq := rs.SiteUpdatesPerStep(); refined > 0 {
			res.UpdateRatio = fineEq / refined
		}
	}

	// Hand an interrupted run's state to runJob's persist stage, which
	// writes it through the checkpoint container so a resume job can
	// continue bit-identically.
	if runErr != nil && runctl.IsInterrupt(runErr) && ckptDir != "" {
		switch sv := solver.(type) {
		case lbm.Solver:
			res.pendingState = sv.State()
		case lbm.RefinedSolver:
			res.pendingRefined = sv.State()
		}
	}
	return res, schedule, runErr
}

// slipLengthNM fits the Navier slip length (nanometers) from the
// near-wall half of the mid-channel velocity profile u (u_x along y at
// x = NX/2, z = NZ/2 of lattice p); 0 when the fit is not possible (no
// developed flow yet). Refined solvers report the profile in global fine
// coordinates, and distributed jobs take it from the rank owning the
// plane, so the fit is the same for every solver.
func slipLengthNM(p *lbm.Params, u []float64) float64 {
	ch := geometry.NewChannel(p.NX, p.NY, p.NZ)
	half := p.NY / 2
	dist := make([]float64, 0, half)
	vel := make([]float64, 0, half)
	for y := 1; y < half; y++ {
		d, _ := ch.WallDistanceY(y)
		dist = append(dist, d)
		vel = append(vel, u[y])
	}
	prof, err := measure.NewProfile(dist, vel)
	if err != nil {
		return 0
	}
	b, err := prof.SlipLength(3)
	if err != nil {
		return 0
	}
	return b * units.GridSpacing * 1e9
}

// runDistributed executes a distributed water/air job across simulated
// ranks with coordinated checkpoints in the job's checkpoint
// directory. A non-nil snap resumes from a committed coordinated
// checkpoint; startPhase is then snap.Phase. No field leaves its rank:
// the result is reduced from what each rank returns.
func (s *Server) runDistributed(j *job, spec JobSpec, ckptDir string, snap *checkpoint.RunSnapshot, startPhase int) (*Result, time.Duration, error) {
	scheduleStart := time.Now()
	p := lbm.WaterAir(spec.NX, spec.NY, spec.NZ)
	if snap != nil && snap.Params != nil {
		p = snap.Params
	}
	ranks := spec.Ranks
	if ranks == 0 {
		ranks = 2
	}
	phases := startPhase + spec.Steps
	interval := spec.CheckpointInterval
	if interval <= 0 {
		interval = spec.Steps / 4
	}
	if interval < 1 {
		interval = 1
	}
	every := s.cfg.StreamEvery
	frames := &massFrames{ranks: ranks, pending: map[int]*massShares{}, publish: j.publish}
	opts := parlbm.Options{
		Phases:    phases,
		Ctx:       j.ctx,
		WallLimit: time.Duration(spec.WallLimitMS) * time.Millisecond,
		PostPhase: func(rank, phase, planes int, mass func() []float64) error {
			// Frames at the steps a sequential job streams: every
			// StreamEvery steps from the start, then the final one below.
			if step := phase + 1; (step-startPhase)%every == 0 && step < phases {
				frames.add(step, rank, mass()[0])
			}
			return nil
		},
	}
	if ckptDir != "" {
		opts.Checkpoint = &parlbm.CheckpointSpec{
			Dir: ckptDir, Interval: interval, Keep: s.cfg.CheckpointKeep, Snapshot: snap,
		}
	}
	schedule := time.Since(scheduleStart)
	j.markCompute()

	results, err := parlbm.RunParallelReduced(p, ranks, opts)
	res := &Result{StartStep: startPhase, Steps: phases, CheckpointPhase: -1}
	if ckptDir != "" {
		if m, cerr := checkpoint.LatestCommitted(ckptDir); cerr == nil {
			res.CheckpointPhase = m.Phase
		}
	}
	if err != nil {
		if runctl.IsInterrupt(err) {
			for _, r := range results {
				if r != nil && r.Interrupted != nil {
					res.Steps = r.Interrupted.Phase
				}
			}
		}
		return res, schedule, err
	}
	if err := reduceRanks(res, p, results); err != nil {
		return res, schedule, err
	}
	j.publish(Frame{Step: res.Steps, MassWater: res.MassWater})
	return res, schedule, nil
}

// reduceRanks fills a finished distributed job's result from what its
// ranks returned — the water mass as the sum of their shares (in rank
// order), the center velocity and slip length from the mid-channel
// profile of the rank owning plane NX/2 — and fails the job when a
// rank's mass is NaN, as CheckFinite does for sequential jobs.
func reduceRanks(res *Result, p *lbm.Params, results []*parlbm.Result) error {
	for _, r := range results {
		for c, m := range r.Mass {
			if math.IsNaN(m) {
				return fmt.Errorf("serve: NaN in component %d on rank %d at step %d", c, r.Rank, res.Steps)
			}
		}
		res.MassWater += r.Mass[0]
		if r.Profile != nil {
			res.CenterVelocity = r.Profile[p.NY/2]
			res.SlipLengthNM = slipLengthNM(p, r.Profile)
		}
	}
	return nil
}

// massFrames turns the ranks' per-phase water-mass shares into progress
// frames: a step's frame goes out once every rank has reported, with
// the shares summed in rank order, so a distributed job streams the
// global mass at the same steps as a sequential one. Ranks run ahead of
// each other by less than the group size, so only a few steps are ever
// pending, and a step completes before any later one can.
type massFrames struct {
	mu      sync.Mutex
	ranks   int
	pending map[int]*massShares // by step
	publish func(Frame)
}

// massShares collects one step's per-rank shares.
type massShares struct {
	share    []float64
	reported int
}

func (m *massFrames) add(step, rank int, share float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	ps := m.pending[step]
	if ps == nil {
		ps = &massShares{share: make([]float64, m.ranks)}
		m.pending[step] = ps
	}
	ps.share[rank] = share
	if ps.reported++; ps.reported < m.ranks {
		return
	}
	delete(m.pending, step)
	var total float64
	for _, v := range ps.share {
		total += v
	}
	m.publish(Frame{Step: step, MassWater: total})
}

// runResumed continues an interrupted (or extendable) job named by
// spec.Resume: a distributed job resumes from its latest committed
// coordinated checkpoint, a sequential job from its saved state file.
func (s *Server) runResumed(j *job, spec JobSpec, ckptDir string) (*Result, time.Duration, error) {
	src, ok := s.getJob(spec.Resume)
	if !ok {
		return nil, 0, fmt.Errorf("%w: %s", ErrNoJob, spec.Resume)
	}
	srcSpec := src.Status().Spec
	srcDir, err := s.cfg.Storage.CheckpointDir(spec.Resume)
	if err != nil {
		return nil, 0, err
	}
	if srcDir == "" {
		return nil, 0, specErr("storage backend offers no checkpoints to resume from")
	}
	// Inherit the source's workload shape; only Steps (and supervision
	// knobs) come from the new spec.
	kind := srcSpec.Kind
	if srcSpec.Resume != "" {
		kind = "" // chained resume: recover the kind from the artifacts
	}
	if kind == KindDistributed || kind == "" {
		if snap, err := checkpoint.LatestRun(srcDir); err == nil {
			run := srcSpec
			run.Steps = spec.Steps
			run.WallLimitMS = spec.WallLimitMS
			run.CheckpointInterval = spec.CheckpointInterval
			if run.CheckpointInterval == 0 {
				run.CheckpointInterval = srcSpec.CheckpointInterval
			}
			return s.runDistributed(j, run, ckptDir, snap, snap.Phase)
		} else if kind == KindDistributed {
			return nil, 0, err
		}
	}
	statePath := filepath.Join(srcDir, stateFileName)
	run := srcSpec
	if run.Kind == "" || run.Resume != "" {
		run.Kind = KindWallForce
	}
	run.Steps = spec.Steps
	run.WallLimitMS = spec.WallLimitMS
	st, err := checkpoint.LoadFile(statePath)
	if errors.Is(err, checkpoint.ErrRefineMismatch) {
		// The checkpoint is a refined snapshot. When the source spec
		// still names its descriptor, pin the load to it — a descriptor
		// disagreement must fail typed, not resume a different grid
		// hierarchy; a chained resume (source spec is itself a resume)
		// recovers the descriptor from the artifact.
		var rst *lbm.RefinedState
		var rerr error
		if srcSpec.Refine != nil {
			rst, rerr = checkpoint.LoadRefinedFileFor(statePath, *srcSpec.Refine)
		} else {
			rst, rerr = checkpoint.LoadRefinedFile(statePath)
		}
		if rerr != nil {
			return nil, 0, fmt.Errorf("serve: job %s refined checkpoint: %w", spec.Resume, rerr)
		}
		run.Refine = &rst.Spec
		return s.runSequential(j, run, ckptDir, nil, rst)
	}
	if err != nil {
		return nil, 0, fmt.Errorf("serve: job %s has no loadable checkpoint: %w", spec.Resume, err)
	}
	if srcSpec.Refine != nil {
		return nil, 0, fmt.Errorf("serve: job %s ran refined but checkpointed a uniform state: %w", spec.Resume, checkpoint.ErrRefineMismatch)
	}
	return s.runSequential(j, run, ckptDir, st, nil)
}
