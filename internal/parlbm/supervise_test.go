package parlbm

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"microslip/internal/balance"
	"microslip/internal/checkpoint"
	"microslip/internal/comm"
	"microslip/internal/lbm"
	"microslip/internal/runctl"
)

// A cancelled distributed run stops orderly: every rank returns an
// error wrapping ErrCanceled, all ranks agree on one stop boundary,
// results come back with Interrupted set, and the coordinated interrupt
// checkpoint resumes bit-identically to the uninterrupted run.
func TestRunParallelCancelCheckpointResume(t *testing.T) {
	p := lbm.WaterAir(12, 10, 6)
	const phases, ranks = 14, 3
	want := sequentialReference(t, p, phases)

	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var fired atomic.Bool
	opts := Options{
		Phases: phases,
		Ctx:    ctx,
		PhaseHook: func(rank, phase int) {
			if phase == 5 && fired.CompareAndSwap(false, true) {
				cancel()
			}
		},
		Checkpoint: &CheckpointSpec{Dir: dir, Interval: 100, Keep: 2},
	}
	final, results, err := RunParallel(p, ranks, opts)
	if err == nil {
		t.Fatal("cancelled run returned no error")
	}
	if !errors.Is(err, runctl.ErrCanceled) {
		t.Fatalf("err = %v, want wrapped ErrCanceled", err)
	}
	var re *RankError
	if !errors.As(err, &re) {
		t.Fatalf("err carries no RankError: %v", err)
	}
	if final != nil {
		t.Fatal("interrupted run gathered final fields")
	}
	if results == nil {
		t.Fatal("interrupted run returned no per-rank results")
	}
	stopPhase := -1
	for r, res := range results {
		if res == nil || res.Interrupted == nil {
			t.Fatalf("rank %d result lacks Interrupted: %+v", r, res)
		}
		if !res.Interrupted.Checkpointed {
			t.Fatalf("rank %d interrupt not checkpointed", r)
		}
		if !errors.Is(res.Interrupted.Cause, runctl.ErrCanceled) {
			t.Fatalf("rank %d cause = %v", r, res.Interrupted.Cause)
		}
		if stopPhase == -1 {
			stopPhase = res.Interrupted.Phase
		} else if res.Interrupted.Phase != stopPhase {
			t.Fatalf("ranks disagree on stop boundary: %d vs %d", res.Interrupted.Phase, stopPhase)
		}
	}
	if stopPhase <= 5 || stopPhase >= phases {
		t.Fatalf("stop boundary %d outside (5, %d)", stopPhase, phases)
	}

	// The committed checkpoint restores at the agreed boundary and the
	// resumed run finishes bit-identically to the sequential reference.
	m, err := checkpoint.LatestCommitted(dir)
	if err != nil {
		t.Fatal(err)
	}
	if m.Phase != stopPhase {
		t.Fatalf("committed checkpoint at phase %d, want the stop boundary %d", m.Phase, stopPhase)
	}
	snap, err := checkpoint.LoadRun(dir, m)
	if err != nil {
		t.Fatal(err)
	}
	resumeOpts := Options{
		Phases:     phases,
		Checkpoint: &CheckpointSpec{Dir: dir, Interval: 100, Keep: 2, Snapshot: snap},
	}
	got, resumeResults, err := RunParallel(p, ranks, resumeOpts)
	if err != nil {
		t.Fatal(err)
	}
	if resumeResults[0].StartPhase != stopPhase {
		t.Fatalf("resume started at phase %d, want %d", resumeResults[0].StartPhase, stopPhase)
	}
	assertFieldsEqual(t, want, got, "cancel/resume")
}

// A wall-limited run returns ErrWallLimit; without a CheckpointSpec the
// interruption reports Checkpointed=false.
func TestRunParallelWallLimit(t *testing.T) {
	p := lbm.WaterAir(8, 6, 4)
	opts := Options{
		Phases:    10_000,
		WallLimit: 50 * time.Millisecond,
		Throttle: func(rank, planes, phase int) {
			time.Sleep(time.Millisecond)
		},
	}
	_, results, err := RunParallel(p, 2, opts)
	if !errors.Is(err, runctl.ErrWallLimit) {
		t.Fatalf("err = %v, want wrapped ErrWallLimit", err)
	}
	for r, res := range results {
		if res == nil || res.Interrupted == nil {
			t.Fatalf("rank %d lacks Interrupted", r)
		}
		if res.Interrupted.Checkpointed {
			t.Fatalf("rank %d claims a checkpoint without a spec", r)
		}
		if !errors.Is(res.Interrupted.Cause, runctl.ErrWallLimit) {
			t.Fatalf("rank %d cause = %v", r, res.Interrupted.Cause)
		}
	}
}

// A panic inside one rank's phase hook aborts the whole group promptly:
// the failing rank reports a PanicError naming it, peers unwind through
// the supervised receives (typed, not hung), and no checkpoint claims
// the poisoned state.
func TestRunParallelRankPanicAborts(t *testing.T) {
	p := lbm.WaterAir(8, 6, 4)
	opts := Options{
		Phases: 50,
		PhaseHook: func(rank, phase int) {
			if rank == 1 && phase == 3 {
				panic("injected rank fault")
			}
		},
	}
	done := make(chan struct{})
	var err error
	go func() {
		defer close(done)
		_, _, err = RunParallel(p, 3, opts)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("rank panic hung the group")
	}
	if err == nil {
		t.Fatal("panicked run returned no error")
	}
	var pe *runctl.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want a PanicError in the chain", err)
	}
	if pe.Rank != 1 {
		t.Fatalf("PanicError rank = %d, want 1", pe.Rank)
	}
	if runctl.IsInterrupt(err) {
		t.Fatal("a panic must not classify as an orderly interrupt")
	}
}

// Cancellation near a remap boundary still produces one agreed stop
// boundary and a resumable checkpoint (the persisted ownership map is
// the remapped one).
func TestRunParallelCancelNearRemap(t *testing.T) {
	p := lbm.WaterAir(12, 10, 6)
	const phases, ranks = 16, 2
	want := sequentialReference(t, p, phases)
	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var fired atomic.Bool
	opts := Options{
		Phases:    phases,
		Ctx:       ctx,
		Policy:    balance.NewFiltered(p.NY * p.NZ),
		PhaseTime: slowRankTime(1),
		PhaseHook: func(rank, phase int) {
			if phase == 3 && fired.CompareAndSwap(false, true) {
				cancel()
			}
		},
		Checkpoint: &CheckpointSpec{Dir: dir, Interval: 100, Keep: 2},
	}
	_, results, err := RunParallel(p, ranks, opts)
	if !errors.Is(err, runctl.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	stop := results[0].Interrupted.Phase
	m, err := checkpoint.LatestCommitted(dir)
	if err != nil {
		t.Fatal(err)
	}
	if m.Phase != stop {
		t.Fatalf("checkpoint phase %d != stop boundary %d", m.Phase, stop)
	}
	snap, err := checkpoint.LoadRun(dir, m)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := RunParallel(p, ranks, Options{
		Phases:     phases,
		Checkpoint: &CheckpointSpec{Dir: dir, Interval: 100, Keep: 2, Snapshot: snap},
	})
	if err != nil {
		t.Fatal(err)
	}
	assertFieldsEqual(t, want, got, "cancel near remap")
}

// An already-cancelled context stops the run at the first boundary.
func TestRunParallelPreCancelled(t *testing.T) {
	p := lbm.WaterAir(8, 6, 4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, results, err := RunParallel(p, 2, Options{Phases: 20, Ctx: ctx})
	if !errors.Is(err, runctl.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	for _, res := range results {
		if res.Interrupted == nil {
			t.Fatal("missing Interrupted")
		}
		if got := res.Interrupted.Phase; got > 1+2 {
			t.Fatalf("pre-cancelled run stopped at phase %d, want within one boundary + skew", got)
		}
	}
}

// RankError attribution: every rank failure in a joined group error is
// recoverable via errors.As with its rank id.
func TestRankErrorAttribution(t *testing.T) {
	inner := errors.New("boom")
	re := &RankError{Rank: 3, Err: inner}
	if !errors.Is(re, inner) {
		t.Fatal("RankError does not unwrap to its cause")
	}
	var got *RankError
	joined := errors.Join(&RankError{Rank: 0, Err: inner}, re)
	if !errors.As(joined, &got) {
		t.Fatal("errors.As failed on joined RankErrors")
	}
}

// PostPhase errors must abort the run with a rank/phase-attributed
// error.
func TestPostPhaseErrorAborts(t *testing.T) {
	p := lbm.WaterAir(6, 4, 4)
	wantErr := errors.New("mass budget blown")
	_, _, err := RunParallel(p, 2, Options{
		Phases: 3,
		PostPhase: func(rank, phase, planes int, mass []float64) error {
			if rank == 1 && phase == 1 {
				return wantErr
			}
			return nil
		},
	})
	if err == nil {
		t.Fatal("expected run to abort")
	}
	if !errors.Is(err, wantErr) {
		t.Fatalf("error chain %v does not wrap the invariant error", err)
	}
	for _, frag := range []string{"rank 1", "phase 1", "invariant check"} {
		if !strings.Contains(err.Error(), frag) {
			t.Errorf("error %q lacks %q attribution", err, frag)
		}
	}
}

// Result.Comm mirrors the rank's wire byte counters, and Retries stays
// zero: no transport retries a message.
func TestResultCommStats(t *testing.T) {
	p := lbm.WaterAir(6, 4, 4)
	_, results, err := RunParallel(p, 2, Options{Phases: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.Comm.Retries != 0 {
			t.Errorf("rank %d: Comm.Retries = %d, want 0", r.Rank, r.Comm.Retries)
		}
		if r.Comm.Bytes != r.Breakdown.Bytes {
			t.Errorf("rank %d: Comm.Bytes %+v differs from Breakdown.Bytes %+v", r.Rank, r.Comm.Bytes, r.Breakdown.Bytes)
		}
		if r.Comm.Bytes.DensityHalo.SentMsgs == 0 && r.Comm.Bytes.Frame.SentMsgs == 0 {
			t.Errorf("rank %d: no halo traffic counted: %+v", r.Rank, r.Comm.Bytes)
		}
	}
}

// TestRunGroupAggregatesAllRankErrors is the errors.Join satellite: a
// primary failure plus the teardown casualties it causes must ALL be
// visible in the returned error, not just the first.
func TestRunGroupAggregatesAllRankErrors(t *testing.T) {
	p := lbm.WaterAir(6, 4, 4)
	wantErr := errors.New("mass budget blown")
	_, _, err := RunParallel(p, 3, Options{
		Phases: 4,
		PostPhase: func(rank, phase, planes int, mass []float64) error {
			if rank == 1 && phase == 1 {
				return wantErr
			}
			return nil
		},
	})
	if err == nil {
		t.Fatal("expected run to abort")
	}
	if !errors.Is(err, wantErr) {
		t.Fatalf("error chain %v does not wrap the invariant error", err)
	}
	// The teardown unblocks peers with ErrClosed; aggregation must keep
	// those secondary failures diagnosable alongside the root cause.
	if !errors.Is(err, comm.ErrClosed) {
		t.Fatalf("aggregated error lacks the teardown casualties: %v", err)
	}
	msg := err.Error()
	if !strings.Contains(msg, "rank 1") || !strings.Contains(msg, "invariant check") {
		t.Fatalf("error %q lacks root-cause attribution", msg)
	}
	var ranksFailed int
	for _, frag := range []string{"rank 0 failed", "rank 1 failed", "rank 2 failed"} {
		if strings.Contains(msg, frag) {
			ranksFailed++
		}
	}
	if ranksFailed < 2 {
		t.Fatalf("aggregated error names %d failed ranks, want >= 2:\n%s", ranksFailed, msg)
	}
}
