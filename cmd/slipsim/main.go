// Command slipsim runs the fluid-slip physics simulation (Figures 6
// and 7 of the paper): a two-component water/air-vapor mixture in a
// hydrophobic microchannel. It prints the near-wall density and
// velocity profiles and can emit the full profiles as CSV.
//
// Usage:
//
//	slipsim [-nx 32] [-ny 48] [-nz 12] [-steps 3000] [-csv out.csv]
//	        [-precision f64|f32] [-checkpoint state.gob] [-resume state.gob]
//	slipsim -compare-precision [-nx ...] [-steps ...]
//	slipsim -compare-refined [-wall-layers 12] [-nx ...] [-steps ...]
//	slipsim -checkpoint-dir ckpt -checkpoint-interval 500 -ranks 4
//	slipsim -resume-dir ckpt -steps 1000
//
// -precision f32 runs the single-precision core (half the lattice
// memory; checkpoints store float32 payloads and resume at their
// recorded precision). -compare-precision runs the slip case at both
// precisions and prints the accuracy comparison backing the
// EXPERIMENTS.md table. -compare-refined does the same for the
// two-level near-wall refined solver against the uniform-fine one.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"microslip/internal/checkpoint"
	"microslip/internal/experiments"
	"microslip/internal/lbm"
	"microslip/internal/parlbm"
	"microslip/internal/runctl"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("slipsim: ")
	var (
		nx       = flag.Int("nx", 32, "lattice points along the channel (paper: 400)")
		ny       = flag.Int("ny", 48, "lattice points across the width (paper: 200)")
		nz       = flag.Int("nz", 12, "lattice points across the depth (paper: 20)")
		steps    = flag.Int("steps", 3000, "LBM phases to run (paper: 20,000+)")
		steady   = flag.Float64("steady", 0, "stop early when the velocity residual falls below this tolerance (0 = run -steps exactly)")
		csvPath  = flag.String("csv", "", "write full profiles as CSV to this file")
		ckptPath = flag.String("checkpoint", "", "write the final wall-force state to this file (runs one additional simulation)")
		resume   = flag.String("resume", "", "resume the wall-force run from a checkpoint file")
		ckptDir  = flag.String("checkpoint-dir", "", "run a distributed water/air simulation with coordinated checkpoints in this directory")
		ckptInt  = flag.Int("checkpoint-interval", 500, "phases between coordinated checkpoints (-checkpoint-dir/-resume-dir)")
		resumeD  = flag.String("resume-dir", "", "resume a distributed run from the latest committed coordinated checkpoint in this directory")
		ranks    = flag.Int("ranks", 4, "simulated ranks for the distributed run (-checkpoint-dir/-resume-dir)")
		precFlag = flag.String("precision", "f64", "scalar precision of the solver core: f64 or f32")
		cmpPrec  = flag.Bool("compare-precision", false, "run the slip case at both precisions and print the accuracy comparison")
		cmpRef   = flag.Bool("compare-refined", false, "run the slip case uniform-fine and refined and print the accuracy comparison")
		wallLay  = flag.Int("wall-layers", 12, "fine rows per wall slab for -compare-refined")
		wallLim  = flag.Duration("wall-limit", 0, "stop the run after this wall-clock budget, checkpointing what completed (0 = unlimited)")
	)
	flag.Parse()

	// SIGINT/SIGTERM stop the run at the next step/phase boundary
	// instead of killing it mid-write: distributed runs commit a
	// coordinated interrupt checkpoint, sequential runs with -checkpoint
	// persist the partial state, and the exit message names the resume
	// flag. A second signal kills the process the usual way.
	ctx, stopSignals := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stopSignals()
	prec, err := lbm.ParsePrecision(*precFlag)
	if err != nil {
		log.Fatalf("-precision: %v", err)
	}

	if *cmpPrec {
		setup := experiments.PhysicsSetup{NX: *nx, NY: *ny, NZ: *nz, Steps: *steps, SampleZ: *nz / 2, SteadyTol: *steady}
		cmp, err := experiments.RunPrecisionAccuracy(setup)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(cmp.Table())
		return
	}

	if *cmpRef {
		setup := experiments.PhysicsSetup{NX: *nx, NY: *ny, NZ: *nz, Steps: *steps, SampleZ: *nz / 2, SteadyTol: *steady, Precision: prec}
		cmp, err := experiments.RunRefinedAccuracy(setup, lbm.RefineSpec{Levels: 2, WallLayers: *wallLay})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(cmp.Table())
		return
	}

	if *ckptDir != "" || *resumeD != "" {
		if err := runDistributed(ctx, *wallLim, *ckptDir, *resumeD, *nx, *ny, *nz, *steps, *ranks, *ckptInt); err != nil {
			log.Fatal(err)
		}
		return
	}

	if *resume != "" {
		if err := runResumed(ctx, *wallLim, *resume, *steps, *ckptPath); err != nil {
			log.Fatal(err)
		}
		return
	}

	setup := experiments.PhysicsSetup{NX: *nx, NY: *ny, NZ: *nz, Steps: *steps, SampleZ: *nz / 2, SteadyTol: *steady, Precision: prec,
		Sup: runctl.NewSupervisor(ctx, *wallLim)}
	res, err := experiments.RunSlipPhysics(setup)
	if runctl.IsInterrupt(err) {
		log.Fatalf("interrupted before the profiles were sampled: %v", err)
	}
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(res.Table())
	if *csvPath != "" {
		if err := os.WriteFile(*csvPath, []byte(res.CSV()), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("profiles written to %s\n", *csvPath)
	}
	if *ckptPath != "" {
		p := lbm.WaterAir(*nx, *ny, *nz)
		p.Precision = prec
		s, err := lbm.NewSolver(p)
		if err != nil {
			log.Fatal(err)
		}
		s.SetWorkers(runtime.GOMAXPROCS(0))
		done, err := s.RunSupervised(*steps, runctl.NewSupervisor(ctx, *wallLim))
		if err != nil && !runctl.IsInterrupt(err) {
			log.Fatal(err)
		}
		if saveErr := checkpoint.SaveFile(*ckptPath, s.State()); saveErr != nil {
			log.Fatal(saveErr)
		}
		if err != nil {
			fmt.Printf("interrupted at step %d of %d (%v); partial checkpoint written to %s (resume with -resume %s)\n",
				done, *steps, err, *ckptPath, *ckptPath)
			return
		}
		fmt.Printf("checkpoint written to %s\n", *ckptPath)
	}
}

// runDistributed runs the water/air simulation across simulated ranks
// with coordinated checkpointing. With -resume-dir it restores the
// latest committed checkpoint (the manifest carries the lattice
// parameters, so no geometry flags are needed) and runs -steps more
// phases; new checkpoints land in -checkpoint-dir, defaulting to the
// resume directory.
func runDistributed(ctx context.Context, wallLim time.Duration, ckptDir, resumeDir string, nx, ny, nz, steps, ranks, interval int) error {
	p := lbm.WaterAir(nx, ny, nz)
	phases := steps
	var snap *checkpoint.RunSnapshot
	if resumeDir != "" {
		var err error
		snap, err = checkpoint.LatestRun(resumeDir)
		if err != nil {
			return err
		}
		if snap.Params == nil {
			return fmt.Errorf("checkpoint in %s carries no lattice parameters", resumeDir)
		}
		p = snap.Params
		phases = snap.Phase + steps
		fmt.Printf("resumed %dx%dx%d from committed phase %d in %s; running %d more phases\n",
			p.NX, p.NY, p.NZ, snap.Phase, resumeDir, steps)
		if ckptDir == "" {
			ckptDir = resumeDir
		}
	}
	fields, results, err := parlbm.RunParallel(p, ranks, parlbm.Options{
		Phases:     phases,
		Ctx:        ctx,
		WallLimit:  wallLim,
		Checkpoint: &parlbm.CheckpointSpec{Dir: ckptDir, Interval: interval, Snapshot: snap},
	})
	if err != nil {
		var re *parlbm.RankError
		if runctl.IsInterrupt(err) && errors.As(err, &re) {
			// Orderly interrupt: the group agreed on a stop boundary and
			// committed a coordinated checkpoint there.
			stop := -1
			for _, r := range results {
				if r != nil && r.Interrupted != nil {
					stop = r.Interrupted.Phase
				}
			}
			fmt.Printf("interrupted at phase %d of %d\n", stop, phases)
			if m, cerr := checkpoint.LatestCommitted(ckptDir); cerr == nil {
				fmt.Printf("committed checkpoint at phase %d (resume with -resume-dir %s)\n", m.Phase, ckptDir)
			}
			return nil
		}
		return err
	}
	written := 0
	for _, r := range results {
		if r.Rank == 0 {
			written = r.Checkpoints
		}
	}
	fmt.Printf("ran %d ranks to phase %d; %d coordinated checkpoints written to %s\n",
		ranks, phases, written, ckptDir)
	fmt.Printf("total water mass %.6g\n", fields[0].TotalMass())
	if m, err := checkpoint.LatestCommitted(ckptDir); err == nil {
		fmt.Printf("latest committed checkpoint: phase %d (resume with -resume-dir %s)\n", m.Phase, ckptDir)
	}
	return nil
}

func runResumed(ctx context.Context, wallLim time.Duration, path string, steps int, ckptPath string) error {
	st, err := checkpoint.LoadFile(path)
	if err != nil {
		return err
	}
	// SolverFromState honors the snapshot's recorded precision, so a
	// float32 checkpoint resumes on the float32 core bit-stably.
	s, err := lbm.SolverFromState(st)
	if err != nil {
		return err
	}
	fmt.Printf("resumed %dx%dx%d at step %d (%s); running %d more steps\n",
		st.Params.NX, st.Params.NY, st.Params.NZ, s.StepCount(), st.Params.Precision, steps)
	s.SetWorkers(runtime.GOMAXPROCS(0))
	done, runErr := s.RunSupervised(steps, runctl.NewSupervisor(ctx, wallLim))
	if runErr != nil && !runctl.IsInterrupt(runErr) {
		return runErr
	}
	if err := s.CheckFinite(); err != nil {
		return err
	}
	if runErr != nil {
		fmt.Printf("interrupted at step %d of %d (%v)\n", done, steps, runErr)
		if ckptPath != "" {
			if err := checkpoint.SaveFile(ckptPath, s.State()); err != nil {
				return err
			}
			fmt.Printf("partial checkpoint written to %s (resume with -resume %s)\n", ckptPath, ckptPath)
		}
		return nil
	}
	fmt.Printf("now at step %d; total water mass %.6g\n", s.StepCount(), s.TotalMass(0))
	if ckptPath != "" {
		if err := checkpoint.SaveFile(ckptPath, s.State()); err != nil {
			return err
		}
		fmt.Printf("checkpoint written to %s\n", ckptPath)
	}
	return nil
}
