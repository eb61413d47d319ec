package experiments

import (
	"context"
	"errors"
	"fmt"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"microslip/internal/checkpoint"
	"microslip/internal/field"
	"microslip/internal/lbm"
	"microslip/internal/parlbm"
	"microslip/internal/runctl"
	"microslip/internal/testutil/leakcheck"
)

// TestAbortChaos pins the abort-safety acceptance bar: across the
// default seeded schedule mix (pure cancels, worker panics, worker
// stalls + cancel) and all four intra-node variants, every run stops
// with a typed cause, leaks zero goroutines, leaves a committed
// checkpoint, and resumes bit-identically to the uninterrupted
// reference.
func TestAbortChaos(t *testing.T) {
	res, err := RunAbortChaos(DefaultAbortChaos())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", res)
	if !res.AllClean() {
		t.Fatalf("abort chaos not clean:\n%s", res)
	}
	// The default mix must actually contain all three distributed
	// shapes, or the gate is weaker than it claims.
	var cancels, panics, stalls int
	for _, run := range res.Runs {
		switch {
		case run.Cause == "panic":
			panics++
		case run.Cause == "canceled":
			cancels++
		}
		if len(run.Name) >= 10 && run.Name[:10] == "dist/stall" {
			stalls++
		}
	}
	if cancels == 0 || panics == 0 || stalls == 0 {
		t.Fatalf("shape coverage: cancels=%d panics=%d stalls=%d", cancels, panics, stalls)
	}
}

// A second seed, to keep the gate from overfitting one schedule plan.
func TestAbortChaosAltSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("alt seed skipped in -short")
	}
	setup := DefaultAbortChaos()
	setup.Seed = 42
	res, err := RunAbortChaos(setup)
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllClean() {
		t.Fatalf("abort chaos (seed 42) not clean:\n%s", res)
	}
}

// The sweep refuses setups below the schedule floor or whose checkpoint
// period leaves no room for an event after the first commit.
func TestChaosRejectsBadSetup(t *testing.T) {
	s := DefaultAbortChaos()
	s.Schedules = 4
	if _, err := RunAbortChaos(s); err == nil {
		t.Error("expected error for 4 schedules")
	}
	for _, interval := range []int{0, s.Phases - 1} {
		s = DefaultAbortChaos()
		s.CheckpointInterval = interval
		if _, err := RunAbortChaos(s); err == nil {
			t.Errorf("expected error for checkpoint interval %d over %d phases", interval, s.Phases)
		}
	}
}

// Abort-chaos harness: the supervision stack under seeded aborts.
// RunAbortChaos proves *stopping* is safe — a cancel, wall-clock
// expiry, worker panic, or worker stall ends the run with a typed
// cause, unwinds every goroutine (the leak gate is part of the
// assertion), leaves a committed checkpoint when the stop was orderly,
// and resumes bit-identically.
// Part A drives the intra-node bands at both precisions; part B drives
// the distributed phase loop across a seeded schedule mix of pure
// cancels, worker panics, and stall+cancel.

// bandHooker reaches the sequential solver's band hook from an
// lbm.Solver.
type bandHooker interface {
	SetBandHook(hook func(band, step int))
}

// AbortChaosSetup configures an abort-chaos sweep.
type AbortChaosSetup struct {
	// NX, NY, NZ is the (reduced) lattice.
	NX, NY, NZ int
	// Steps is the intra-node run length; Phases the distributed one.
	Steps, Phases int
	// Ranks is the distributed group size; Workers the band pool size.
	Ranks, Workers int
	// Seed drives both the intra-node cancel points and the distributed
	// schedule plan.
	Seed int64
	// Schedules is the number of distributed abort scenarios (min 5:
	// the acceptance floor).
	Schedules int
	// CheckpointInterval is the periodic coordinated-checkpoint period;
	// every scheduled event lands after the first interval so panic
	// recovery always has a committed restore point.
	CheckpointInterval int
}

// DefaultAbortChaos returns a setup that finishes the sweep in a few
// seconds.
func DefaultAbortChaos() AbortChaosSetup {
	return AbortChaosSetup{
		NX: 12, NY: 6, NZ: 4,
		Steps: 12, Phases: 18,
		Ranks: 3, Workers: 4,
		Seed:               1,
		Schedules:          5,
		CheckpointInterval: 4,
	}
}

// AbortChaosRun is one scenario's outcome.
type AbortChaosRun struct {
	// Name identifies the scenario ("intra/fused-f32",
	// "dist/panic@9"...).
	Name string
	// Cause is the typed stop cause observed ("canceled", "panic", ...).
	Cause string
	// StopAt is the step/phase the run actually stopped at.
	StopAt int
	// Checkpointed reports a committed checkpoint at or before StopAt.
	Checkpointed bool
	// Resumed reports the run was restarted from its stop state.
	Resumed bool
	// BitIdentical reports the resumed run matched the uninterrupted
	// reference exactly.
	BitIdentical bool
	// LeakedGoroutines counts goroutines outliving the scenario.
	LeakedGoroutines int
}

func (r AbortChaosRun) clean() bool {
	return r.Cause != "" && r.Resumed && r.BitIdentical && r.LeakedGoroutines == 0
}

// AbortChaosResult is the sweep outcome.
type AbortChaosResult struct {
	Setup AbortChaosSetup
	Runs  []AbortChaosRun
}

// AllClean reports whether every scenario stopped typed, leaked
// nothing, and resumed bit-identically.
func (r *AbortChaosResult) AllClean() bool {
	for _, run := range r.Runs {
		if !run.clean() {
			return false
		}
	}
	return len(r.Runs) > 0
}

// String renders the sweep as a table.
func (r *AbortChaosResult) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-18s %-10s %6s %6s %8s %10s %6s\n",
		"scenario", "cause", "stop", "ckpt", "resumed", "identical", "leaks")
	for _, run := range r.Runs {
		fmt.Fprintf(&sb, "%-18s %-10s %6d %6v %8v %10v %6d\n",
			run.Name, run.Cause, run.StopAt, run.Checkpointed,
			run.Resumed, run.BitIdentical, run.LeakedGoroutines)
	}
	return sb.String()
}

func causeName(err error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, runctl.ErrPanic):
		return "panic"
	case errors.Is(err, runctl.ErrCanceled):
		return "canceled"
	case errors.Is(err, runctl.ErrWallLimit):
		return "wall-limit"
	default:
		return "untyped"
	}
}

// RunAbortChaos executes the sweep.
func RunAbortChaos(setup AbortChaosSetup) (*AbortChaosResult, error) {
	if setup.Schedules < 5 {
		return nil, fmt.Errorf("abortchaos: %d schedules below the 5-schedule floor", setup.Schedules)
	}
	if setup.CheckpointInterval < 1 || setup.CheckpointInterval+1 >= setup.Phases {
		return nil, fmt.Errorf("abortchaos: checkpoint interval %d does not fit %d phases", setup.CheckpointInterval, setup.Phases)
	}
	res := &AbortChaosResult{Setup: setup}

	// Part A: intra-node bands at both precisions. The ref/fused pairs
	// keep the names of the two stepping paths the solver used to have;
	// both now run the one in-place sweep, at different cancel points.
	intra := []struct {
		name string
		f32  bool
	}{
		{"intra/ref-f64", false},
		{"intra/fused-f64", false},
		{"intra/ref-f32", true},
		{"intra/fused-f32", true},
	}
	for i, tc := range intra {
		cancelAt := 3 + int((setup.Seed+int64(i)))%((setup.Steps/2)+1)
		run, err := abortChaosIntra(setup, tc.name, tc.f32, cancelAt)
		if err != nil {
			return nil, fmt.Errorf("abortchaos: %s: %w", tc.name, err)
		}
		res.Runs = append(res.Runs, *run)
	}

	// Part B: distributed phase loop across the seeded schedule mix.
	// Events are bounded below the last reachable stop boundary: an
	// orderly stop lands ranks many phases after the proposing rank
	// (ring skew), so a cancel inside the final group-size phases would
	// just let the run complete.
	lastUseful := setup.Phases - setup.Ranks - 1
	scheds := abortSchedules(setup.Seed, setup.Schedules, setup.Ranks,
		lastUseful, setup.CheckpointInterval+1)
	for i, s := range scheds {
		run, err := abortChaosDistributed(setup, i, s)
		if err != nil {
			return nil, fmt.Errorf("abortchaos: schedule %d: %w", i, err)
		}
		res.Runs = append(res.Runs, *run)
	}
	return res, nil
}

// abortChaosIntra cancels a supervised intra-node run at a seeded step,
// snapshots the interrupted state through the checkpoint codec, and
// resumes to completion.
func abortChaosIntra(setup AbortChaosSetup, name string, f32 bool, cancelAt int) (*AbortChaosRun, error) {
	mk := func() (*lbm.Params, error) {
		p := lbm.WaterAir(setup.NX, setup.NY, setup.NZ)
		if f32 {
			p.Precision = lbm.F32
		}
		return p, nil
	}
	base := leakcheck.Snapshot()
	run := &AbortChaosRun{Name: name}

	p, err := mk()
	if err != nil {
		return nil, err
	}
	ref, err := lbm.NewSolver(p)
	if err != nil {
		return nil, err
	}
	ref.SetWorkers(setup.Workers)
	if _, err := ref.RunSupervised(setup.Steps, nil); err != nil {
		return nil, err
	}

	p2, err := mk()
	if err != nil {
		return nil, err
	}
	s, err := lbm.NewSolver(p2)
	if err != nil {
		return nil, err
	}
	s.SetWorkers(setup.Workers)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var fired atomic.Bool
	s.(bandHooker).SetBandHook(func(band, step int) {
		if step == cancelAt && fired.CompareAndSwap(false, true) {
			cancel()
		}
	})
	sup := runctl.NewSupervisor(ctx, 0)
	done, runErr := s.RunSupervised(setup.Steps, sup)
	run.Cause = causeName(runErr)
	run.StopAt = done
	if runErr == nil || done >= setup.Steps {
		return nil, fmt.Errorf("cancel at step %d never stopped the run (%d steps, err %v)", cancelAt, done, runErr)
	}

	// Round-trip the interrupted state through the checkpoint file codec
	// — what an operator's abort handler persists — then resume.
	dir, err := os.MkdirTemp("", "abortchaos-intra-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	file := dir + "/interrupt.ckpt"
	if err := checkpoint.SaveFile(file, s.State()); err != nil {
		return nil, err
	}
	run.Checkpointed = true
	st, err := checkpoint.LoadFile(file)
	if err != nil {
		return nil, err
	}
	resumed, err := lbm.SolverFromState(st)
	if err != nil {
		return nil, err
	}
	resumed.SetWorkers(setup.Workers)
	if _, err := resumed.RunSupervised(setup.Steps-done, nil); err != nil {
		return nil, err
	}
	run.Resumed = true
	run.BitIdentical = statesEqual(ref.State(), resumed.State())
	run.LeakedGoroutines = leakcheck.Count(base, 2*time.Second)
	return run, nil
}

func statesEqual(a, b *lbm.State) bool {
	if len(a.F) != len(b.F) {
		return false
	}
	for c := range a.F {
		for x := range a.F[c] {
			for i := range a.F[c][x] {
				if a.F[c][x][i] != b.F[c][x][i] {
					return false
				}
			}
		}
	}
	return true
}

// abortChaosDistributed runs one seeded distributed schedule: worker
// faults via the injector hook, cancel via context, then assert typed
// unwind, committed checkpoint, and bit-identical resume.
func abortChaosDistributed(setup AbortChaosSetup, idx int, sched abortSchedule) (*AbortChaosRun, error) {
	base := leakcheck.Snapshot()
	run := &AbortChaosRun{Name: fmt.Sprintf("dist/%s", schedLabel(sched))}

	p := lbm.WaterAir(setup.NX, setup.NY, setup.NZ)
	want, err := sequentialFields(p, setup.Phases)
	if err != nil {
		return nil, err
	}

	dir, err := os.MkdirTemp("", "abortchaos-dist-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	inj := newWorkerInjector(sched.rules)
	var fired atomic.Bool
	opts := parlbm.Options{
		Phases: setup.Phases,
		Ctx:    ctx,
		PhaseHook: inj.hook(func(rank, phase int) {
			if phase == sched.cancelAtPhase && fired.CompareAndSwap(false, true) {
				cancel()
			}
		}),
		Checkpoint: &parlbm.CheckpointSpec{Dir: dir, Interval: setup.CheckpointInterval, Keep: 2},
	}
	_, results, runErr := parlbm.RunParallel(p, setup.Ranks, opts)
	run.Cause = causeName(runErr)
	if runErr == nil {
		return nil, fmt.Errorf("schedule never stopped the run")
	}
	var re *parlbm.RankError
	if !errors.As(runErr, &re) {
		return nil, fmt.Errorf("group error carries no RankError: %w", runErr)
	}

	if runctl.IsInterrupt(runErr) {
		// Orderly stop: every rank must agree on one boundary and have
		// checkpointed there.
		stop := -1
		for r, rr := range results {
			if rr == nil || rr.Interrupted == nil {
				return nil, fmt.Errorf("rank %d: orderly stop without Interrupted", r)
			}
			if !rr.Interrupted.Checkpointed {
				return nil, fmt.Errorf("rank %d: interrupt not checkpointed", r)
			}
			if stop == -1 {
				stop = rr.Interrupted.Phase
			} else if rr.Interrupted.Phase != stop {
				return nil, fmt.Errorf("stop boundary disagreement: %d vs %d", rr.Interrupted.Phase, stop)
			}
		}
		run.StopAt = stop
	} else {
		// Hard abort: the panic must be typed and attributed.
		var pe *runctl.PanicError
		if !errors.As(runErr, &pe) {
			return nil, fmt.Errorf("hard abort without PanicError: %w", runErr)
		}
		if inj.counters().panics == 0 {
			return nil, fmt.Errorf("panic surfaced but the injector never fired")
		}
		run.StopAt = sched.rules[0].step
	}

	// Either way a committed checkpoint must exist (periodic for the
	// panic schedules — every event lands after the first interval — and
	// the interrupt checkpoint for orderly stops), and resuming from it
	// must finish bit-identically.
	m, err := checkpoint.LatestCommitted(dir)
	if err != nil {
		return nil, fmt.Errorf("no committed checkpoint after abort: %w", err)
	}
	run.Checkpointed = true
	snap, err := checkpoint.LoadRun(dir, m)
	if err != nil {
		return nil, err
	}
	final, _, err := parlbm.RunParallel(p, setup.Ranks, parlbm.Options{
		Phases:     setup.Phases,
		Checkpoint: &parlbm.CheckpointSpec{Dir: dir, Interval: setup.CheckpointInterval, Keep: 2, Snapshot: snap},
	})
	if err != nil {
		return nil, fmt.Errorf("resume from phase %d: %w", m.Phase, err)
	}
	run.Resumed = true
	run.BitIdentical = fieldsMatch(p, want, final)
	run.LeakedGoroutines = leakcheck.Count(base, 2*time.Second)
	return run, nil
}

func schedLabel(s abortSchedule) string {
	if len(s.rules) == 0 {
		return fmt.Sprintf("cancel@%d", s.cancelAtPhase)
	}
	r := s.rules[0]
	if s.cancelAtPhase >= 0 {
		return fmt.Sprintf("%s+cancel@%d", r.kind, r.step)
	}
	return fmt.Sprintf("%s@%d", r.kind, r.step)
}

// sequentialFields runs the sequential reference and returns its planes
// in gather layout.
func sequentialFields(p *lbm.Params, phases int) (*lbm.Sim, error) {
	ref, err := lbm.NewSim(p)
	if err != nil {
		return nil, err
	}
	ref.Run(phases)
	return ref, nil
}

func fieldsMatch(p *lbm.Params, ref *lbm.Sim, final []*field.Dist3D) bool {
	for c := 0; c < p.NComp(); c++ {
		for x := 0; x < p.NX; x++ {
			want := ref.Plane(c, x)
			got := final[c].Plane(x)
			for i := range want {
				if got[i] != want[i] {
					return false
				}
			}
		}
	}
	return true
}
