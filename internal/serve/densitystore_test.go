package serve

import (
	"context"
	"math"
	"net/http"
	"testing"
	"time"

	"microslip/internal/balance"
	"microslip/internal/checkpoint"
	"microslip/internal/lbm"
	"microslip/internal/parlbm"
)

// storeParams is the water+air channel with an x-dependent initial
// density wave, so every plane's densities differ from its neighbours'
// and a store entry that describes the wrong plane changes the bits.
func storeParams(nx, ny, nz int) *lbm.Params {
	p := lbm.WaterAir(nx, ny, nz)
	p.InitXWave = 0.04
	return p
}

// bitsEqual fails t at the first population of got that differs, bit
// for bit, from the serial oracle's.
func bitsEqual(t *testing.T, oracle *lbm.Sim, got func(c, x int) []float64) {
	t.Helper()
	for c := 0; c < oracle.P.NComp(); c++ {
		for x := 0; x < oracle.P.NX; x++ {
			want, have := oracle.Plane(c, x), got(c, x)
			for i := range want {
				if math.Float64bits(want[i]) != math.Float64bits(have[i]) {
					t.Fatalf("comp %d plane %d index %d: %v, oracle %v", c, x, i, have[i], want[i])
				}
			}
		}
	}
}

// A slab's density store (lbm.SlabSweepOf) is valid only while its own
// sweep is the one writer of its planes. Every path that writes them
// otherwise — the serial Step between production runs, a rebanding, a
// load, a refined level's coupling, a migration, a resume in parlbm or
// in slipd — is driven here, then stepped on the production path and
// held to the serial Step oracle bit for bit. The test lives in serve
// because serve is the one package that reaches all of those paths.
func TestDensityStoreNeverStale(t *testing.T) {
	const nx, ny, nz, steps = 12, 10, 6, 9
	oracle, err := lbm.NewSim(storeParams(nx, ny, nz))
	if err != nil {
		t.Fatal(err)
	}
	oracle.Run(steps)
	run := func(t *testing.T, s lbm.Stepper, n int) {
		t.Helper()
		if _, err := s.RunSupervised(n, nil); err != nil {
			t.Fatal(err)
		}
	}
	newSim := func(t *testing.T) *lbm.Sim {
		s, err := lbm.NewSim(storeParams(nx, ny, nz))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}

	t.Run("step between runs", func(t *testing.T) {
		s := newSim(t)
		s.SetFusedChunks(2)
		run(t, s, 4)
		s.Step()
		run(t, s, steps-5)
		bitsEqual(t, oracle, s.Plane)
	})
	t.Run("rebanding 1-3-2", func(t *testing.T) {
		s := newSim(t)
		for _, bands := range []int{1, 3, 2} {
			s.SetFusedChunks(bands)
			run(t, s, steps/3)
		}
		bitsEqual(t, oracle, s.Plane)
	})
	t.Run("SolverFromState", func(t *testing.T) {
		s := newSim(t)
		run(t, s, 4)
		loaded, err := lbm.SolverFromState(s.State())
		if err != nil {
			t.Fatal(err)
		}
		run(t, loaded, steps-4)
		st := loaded.State()
		bitsEqual(t, oracle, func(c, x int) []float64 { return st.F[c][x] })
	})
	t.Run("refined", func(t *testing.T) {
		// A refined level's planes are rewritten by the coupling every
		// composite step, so the production path must match the serial
		// composite Step, which runs no sweep at all. (Refinement takes
		// no initial wave.)
		p := lbm.WaterAir(8, 20, 8)
		spec := lbm.RefineSpec{Levels: 2, WallLayers: 4}
		want, err := lbm.NewRefined(p, spec)
		if err != nil {
			t.Fatal(err)
		}
		got, err := lbm.NewRefined(p, spec)
		if err != nil {
			t.Fatal(err)
		}
		want.Run(4)
		got.SetWorkers(2)
		run(t, got, 4)
		ws, gs := want.State(), got.State()
		for l := range ws.Levels {
			for c := range ws.Levels[l].F {
				for x := range ws.Levels[l].F[c] {
					for i, v := range ws.Levels[l].F[c][x] {
						if math.Float64bits(v) != math.Float64bits(gs.Levels[l].F[c][x][i]) {
							t.Fatalf("level %d comp %d plane %d index %d differs", l, c, x, i)
						}
					}
				}
			}
		}
	})
	for _, pol := range []balance.Policy{
		balance.NoRemap(), balance.NewFiltered(ny * nz), balance.NewConservative(ny * nz), balance.NewGlobal(ny * nz),
	} {
		t.Run("parlbm/"+pol.Name, func(t *testing.T) {
			if pol.Name != "none" {
				pol.Cfg.Interval, pol.Cfg.HistoryK = 2, 2
			}
			opts := parlbm.Options{Phases: steps, Policy: pol, PhaseTime: func(rank, planes, phase int) float64 {
				if rank == 1 {
					return 0.03 * float64(planes)
				}
				return 0.01 * float64(planes)
			}}
			final, results, err := parlbm.RunParallel(storeParams(nx, ny, nz), 3, opts)
			if err != nil {
				t.Fatal(err)
			}
			moved := 0
			for _, r := range results {
				moved += r.PlanesSent
			}
			if (pol.Name != "none") != (moved > 0) {
				t.Fatalf("%d planes migrated under policy %s", moved, pol.Name)
			}
			bitsEqual(t, oracle, func(c, x int) []float64 { return final[c].Plane(x) })
		})
	}
	t.Run("parlbm resume 3 to 2", func(t *testing.T) {
		p := storeParams(nx, ny, nz)
		dir := t.TempDir()
		if _, _, err := parlbm.RunParallel(p, 3, parlbm.Options{
			Phases: steps, Checkpoint: &parlbm.CheckpointSpec{Dir: dir, Interval: 4},
		}); err != nil {
			t.Fatal(err)
		}
		snap, err := checkpoint.LatestRun(dir)
		if err != nil {
			t.Fatal(err)
		}
		final, _, err := parlbm.RunParallel(p, 2, parlbm.Options{
			Phases: steps, Checkpoint: &parlbm.CheckpointSpec{Dir: t.TempDir(), Interval: steps, Snapshot: snap},
		})
		if err != nil {
			t.Fatal(err)
		}
		bitsEqual(t, oracle, func(c, x int) []float64 { return final[c].Plane(x) })
	})
	t.Run("slipd resume", func(t *testing.T) {
		// Drain a running job, resume it on a fresh server, and hold the
		// resumed job's result to the oracle stepped as far.
		store, err := NewDirStorage(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		s, ts := newTestServer(t, Config{Pool: 1, StreamEvery: 20, Storage: store})
		st := postJob(t, ts, longSpec(), http.StatusAccepted)
		waitProgress(t, s, st.ID)
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Fatalf("drain: %v", err)
		}
		_, ts2 := newTestServer(t, Config{Pool: 1, StreamEvery: 20, Storage: store})
		re := postJob(t, ts2, JobSpec{Steps: 30, Resume: st.ID}, http.StatusAccepted)
		fin := waitTerminal(t, ts2, re.ID)
		if fin.State != StateDone || fin.Result == nil || fin.Result.StartStep <= 0 {
			t.Fatalf("resume = %s (%s), result %+v", fin.State, fin.Error, fin.Result)
		}
		spec := longSpec()
		want, err := lbm.NewSim(lbm.WaterAir(spec.NX, spec.NY, spec.NZ))
		if err != nil {
			t.Fatal(err)
		}
		want.Run(fin.Result.Steps)
		ux, _, _ := want.Velocity(spec.NX/2, spec.NY/2, spec.NZ/2)
		for _, v := range []struct {
			name      string
			got, want float64
		}{
			{"mass_water", fin.Result.MassWater, want.TotalMass(0)},
			{"center_velocity", fin.Result.CenterVelocity, ux},
		} {
			if math.Float64bits(v.got) != math.Float64bits(v.want) {
				t.Errorf("%s after resuming at step %d: %v, oracle %v", v.name, fin.Result.StartStep, v.got, v.want)
			}
		}
	})
}
