package lbm

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"microslip/internal/runctl"
)

// bandHooker reaches SimOf's band hook from a Solver.
type bandHooker interface {
	SetBandHook(hook func(band, step int))
}

// A panic in one band worker must abort the whole run with a typed
// PanicError naming the band, unwind every other worker (the pool
// rendezvous completes instead of deadlocking), and
// leave the banding rebuildable: the next run works again. The
// "phases" and "fused" rows keep the names of the two stepping paths
// the solver used to have; Params.Fused is ignored, so both run the
// one in-place sweep.
func TestBandWorkerPanicAborts(t *testing.T) {
	for _, fused := range []bool{false, true} {
		name := "phases"
		if fused {
			name = "fused"
		}
		t.Run(name, func(t *testing.T) {
			p := WaterAir(12, 10, 6)
			p.Fused = fused
			s, err := NewSim(p)
			if err != nil {
				t.Fatal(err)
			}
			s.SetWorkers(4)
			s.SetFusedChunks(4)
			s.SetBandHook(func(band, step int) {
				if band == 2 && step == 3 {
					panic("injected band fault")
				}
			})
			done := make(chan error, 1)
			go func() {
				_, err := s.RunSupervised(8, nil)
				done <- err
			}()
			select {
			case err := <-done:
				var pe *runctl.PanicError
				if !errors.As(err, &pe) {
					t.Fatalf("RunSupervised returned %v, want *runctl.PanicError", err)
				}
				if pe.Band != 2 || pe.Rank != -1 {
					t.Fatalf("PanicError identity = rank %d band %d, want rank -1 band 2", pe.Rank, pe.Band)
				}
				if len(pe.Stack) == 0 {
					t.Fatal("PanicError carries no stack")
				}
			case <-time.After(10 * time.Second):
				t.Fatal("band panic deadlocked the band workers")
			}
			// The poisoned scheduler rebuilds and the sim steps again.
			s.SetBandHook(nil)
			advance(t, s, 2)
			if err := s.CheckFinite(); err != nil {
				t.Fatalf("after rebuild: %v", err)
			}
		})
	}
}

// RunSupervised under a worker panic returns the PanicError as a value
// and trips the supervisor for the rest of the stack.
func TestRunSupervisedSurfacesPanic(t *testing.T) {
	p := WaterAir(12, 10, 6)
	s, err := NewSim(p)
	if err != nil {
		t.Fatal(err)
	}
	s.SetWorkers(3)
	s.SetFusedChunks(3)
	s.SetBandHook(func(band, step int) {
		if band == 1 && step == 2 {
			panic("kaboom")
		}
	})
	sup := runctl.NewSupervisor(context.Background(), 0)
	done, err := s.RunSupervised(10, sup)
	var pe *runctl.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("RunSupervised error = %v, want PanicError", err)
	}
	if done != 2 {
		t.Fatalf("completed %d steps before the step-3 panic, want 2", done)
	}
	if sup.HardErr() == nil {
		t.Fatal("supervisor not tripped by the worker panic")
	}
}

// Cancellation stops a supervised run at the next step boundary with
// the typed cause, and checkpoint-resume from that boundary reproduces
// the uninterrupted run bit for bit — the intra-node half of the
// abort-safety story, at both precisions (the phases/fused row pairs
// keep the names of the deleted path switch and run the same sweep).
func TestRunSupervisedCancelResumeBitIdentical(t *testing.T) {
	cases := []struct {
		name  string
		fused bool
		f32   bool
	}{
		{"phases-f64", false, false},
		{"fused-f64", true, false},
		{"phases-f32", false, true},
		{"fused-f32", true, true},
	}
	const total, cancelAt = 12, 5
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mk := func() *Params {
				p := WaterAir(12, 10, 6)
				p.Fused = tc.fused
				if tc.f32 {
					p.Precision = F32
				}
				return p
			}
			ref, err := NewSolver(mk())
			if err != nil {
				t.Fatal(err)
			}
			ref.SetWorkers(4)
			advance(t, ref, total)

			run, err := NewSolver(mk())
			if err != nil {
				t.Fatal(err)
			}
			run.SetWorkers(4)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			run.(bandHooker).SetBandHook(func(band, step int) {
				if step == cancelAt {
					cancel()
				}
			})
			sup := runctl.NewSupervisor(ctx, 0)
			done, err := run.RunSupervised(total, sup)
			if !errors.Is(err, runctl.ErrCanceled) {
				t.Fatalf("RunSupervised = %v, want ErrCanceled", err)
			}
			if done != run.StepCount() {
				t.Fatalf("reported %d steps but sim is at %d", done, run.StepCount())
			}
			if done >= total || done < cancelAt {
				t.Fatalf("cancelled run did %d/%d steps (cancel fired at %d)", done, total, cancelAt)
			}

			// Resume from a snapshot of the interrupted state.
			resumed, err := SolverFromState(run.State())
			if err != nil {
				t.Fatal(err)
			}
			resumed.SetWorkers(4)
			advance(t, resumed, total-done)
			if resumed.StepCount() != total {
				t.Fatalf("resume ended at step %d, want %d", resumed.StepCount(), total)
			}
			a, b := ref.State(), resumed.State()
			for c := range a.F {
				for x := range a.F[c] {
					for i := range a.F[c][x] {
						if a.F[c][x][i] != b.F[c][x][i] {
							t.Fatalf("resume diverges at c=%d x=%d i=%d: %v vs %v",
								c, x, i, a.F[c][x][i], b.F[c][x][i])
						}
					}
				}
			}
		})
	}
}

// A wall-limited supervised run stops with ErrWallLimit once its budget
// expires.
func TestRunSupervisedWallLimit(t *testing.T) {
	p := WaterAir(12, 10, 6)
	s, err := NewSim(p)
	if err != nil {
		t.Fatal(err)
	}
	sup := runctl.NewSupervisor(context.Background(), time.Millisecond)
	time.Sleep(2 * time.Millisecond)
	done, err := s.RunSupervised(1_000_000, sup)
	if !errors.Is(err, runctl.ErrWallLimit) {
		t.Fatalf("err = %v, want ErrWallLimit", err)
	}
	if done == 1_000_000 {
		t.Fatal("wall limit never stopped the run")
	}
}

// RunToSteady under a supervisor reports the partial step count when a
// cancel lands mid-window, and a supervisor that never fires changes
// nothing: the same SteadyResult and a bit-identical lattice as the
// unsupervised (nil) run. One row per solver; the refined row counts
// composite steps and cancels from a fine slab's band hook.
func TestRunToSteadySupervised(t *testing.T) {
	const maxSteps, checkEvery = 50, 4
	cases := []struct {
		name string
		mk   func() (Stepper, *Sim, error) // the solver and the block to hook
		// stop is the step count a cancel at hook step 5 stops at.
		stop int
	}{
		{"uniform", func() (Stepper, *Sim, error) {
			s, err := NewSim(WaterAir(8, 10, 6))
			return s, s, err
		}, 6},
		{"refined", func() (Stepper, *Sim, error) {
			p, spec := refineTestParams()
			r, err := newRefinedOf[float64](p, spec)
			if err != nil {
				return nil, nil, err
			}
			return r, r.bot, nil
		}, 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, hooked, err := tc.mk()
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			hooked.SetBandHook(func(band, step int) {
				if step == 5 {
					cancel()
				}
			})
			res, err := RunToSteady(s, runctl.NewSupervisor(ctx, 0), maxSteps, checkEvery, 0)
			if !errors.Is(err, runctl.ErrCanceled) {
				t.Fatalf("err = %v, want ErrCanceled", err)
			}
			if res.Steps != s.StepCount() || res.Steps != tc.stop {
				t.Fatalf("partial result says %d steps, solver at %d, want %d", res.Steps, s.StepCount(), tc.stop)
			}
			if res.Converged {
				t.Fatal("cancelled steady run reported convergence")
			}

			unsup, _, err := tc.mk()
			if err != nil {
				t.Fatal(err)
			}
			want, err := RunToSteady(unsup, nil, 6, 2, 0)
			if err != nil {
				t.Fatal(err)
			}
			quiet, _, err := tc.mk()
			if err != nil {
				t.Fatal(err)
			}
			got, err := RunToSteady(quiet, runctl.NewSupervisor(context.Background(), 0), 6, 2, 0)
			if err != nil {
				t.Fatal(err)
			}
			if got != want || got.Steps != 6 {
				t.Fatalf("supervised steady result %+v != unsupervised %+v", got, want)
			}
			a, b := latticeBits(unsup), latticeBits(quiet)
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("supervised lattice diverges at word %d", i)
				}
			}
		})
	}
}

// latticeBits flattens every population a solver holds into its bits,
// block by block for a refined solver.
func latticeBits(s Stepper) []uint64 {
	var states []*State
	switch v := s.(type) {
	case Solver:
		states = []*State{v.State()}
	case RefinedSolver:
		st := v.State()
		states = st.Levels[:]
	}
	var out []uint64
	for _, st := range states {
		for c := range st.F {
			for x := range st.F[c] {
				for _, f := range st.F[c][x] {
					out = append(out, math.Float64bits(f))
				}
			}
		}
	}
	return out
}

// The stall fault mode: a band worker sleeping in its hook must not
// corrupt the run — the pack wake's rendezvous simply waits for it —
// and the result stays bit-identical to the unstalled run.
func TestBandStallIsHarmless(t *testing.T) {
	p := WaterAir(12, 10, 6)
	ref, err := NewSim(p)
	if err != nil {
		t.Fatal(err)
	}
	ref.Run(6)

	s, err := NewSim(WaterAir(12, 10, 6))
	if err != nil {
		t.Fatal(err)
	}
	s.SetWorkers(4)
	s.SetFusedChunks(4)
	s.SetBandHook(func(band, step int) {
		if band == 1 && step == 3 {
			time.Sleep(20 * time.Millisecond)
		}
	})
	advance(t, s, 6)
	a, b := ref.State(), s.State()
	for c := range a.F {
		for x := range a.F[c] {
			for i := range a.F[c][x] {
				if a.F[c][x][i] != b.F[c][x][i] {
					t.Fatalf("stalled run diverges at c=%d x=%d i=%d", c, x, i)
				}
			}
		}
	}
}
