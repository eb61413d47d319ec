package main

import (
	"fmt"
	"math/rand"
	"slices"

	"microslip/internal/lbm"
	"microslip/internal/serve"
)

// scale fixes every size of the benchmark. A unit's work is fixed by
// the scale and never by a time budget, so both sides of a comparison
// do identical work per unit; --seconds only decides how many units a
// run repeats.
type scale struct {
	Name string
	// Paper grid (the four paper-size workloads) and small-job grid.
	NX, NY, NZ    int
	SNX, SNY, SNZ int
	// Steps per unit.
	UniformSteps  int // uniform_seq
	RefinedSteps  int // refined_w2, composite steps
	DistPhases    int // dist_ckpt
	DistCkptEvery int
	RemapPhases   int // dist_remap
	RemapInterval int // phases between remapping rounds
	RemapHistoryK int
	SmallSteps    int // small_jobs
	WallLayers    int // refine wall_layers on the paper grid
	// Warm-up job pushed through every freshly booted server (setup_s).
	WarmSteps int
	SetupReps int
	// MinUnits is the least number of units a run measures however
	// short --seconds is.
	MinUnits int
	// Probe sizes of the traced run.
	ProbeSteps   int // solver advance steps per probe
	ProbeCommOps int // exchanges per comm probe
	TriadMiB     int // STREAM triad bytes per array
}

// fullScale is what BENCHMARK.json measures: paper-size 200x100x20
// lattices, with per-unit step counts sized so that a unit takes 1.5-3.5 s
// on the 2-vCPU reference box and a 15 s run holds five to ten of them.
var fullScale = scale{
	Name: "full",
	NX:   200, NY: 100, NZ: 20,
	SNX: 32, SNY: 48, SNZ: 16,
	UniformSteps: 16, RefinedSteps: 30,
	DistPhases: 16, DistCkptEvery: 8,
	RemapPhases: 24, RemapInterval: 4, RemapHistoryK: 3,
	SmallSteps: 10, WallLayers: 12,
	WarmSteps: 5, SetupReps: 5, MinUnits: 3,
	ProbeSteps: 8, ProbeCommOps: 200, TriadMiB: 32,
}

// smokeScale runs the same code on toy lattices in a few seconds; it is
// what bench_test.go runs. Its numbers mean nothing.
var smokeScale = scale{
	Name: "smoke",
	NX:   16, NY: 24, NZ: 8,
	SNX: 16, SNY: 24, SNZ: 8,
	UniformSteps: 10, RefinedSteps: 10,
	DistPhases: 12, DistCkptEvery: 4,
	RemapPhases: 20, RemapInterval: 4, RemapHistoryK: 3,
	SmallSteps: 10, WallLayers: 4,
	WarmSteps: 2, SetupReps: 2, MinUnits: 2,
	ProbeSteps: 4, ProbeCommOps: 20, TriadMiB: 1,
}

// warmSpec is the warm-up job of the set-up phase.
func (sc scale) warmSpec() serve.JobSpec {
	return serve.JobSpec{Kind: serve.KindWallForce, NX: sc.SNX, NY: sc.SNY, NZ: sc.SNZ, Steps: sc.WarmSteps, Fused: true}
}

// workload is one named traffic mix.
type workload struct {
	Name string
	Why  string
	// Clients is the number of closed-loop clients (each sends its next
	// request only when the previous reply arrived).
	Clients int
	// specs returns the cyclic job sequence for HTTP workloads; nil for
	// dist_remap, whose unit is a direct RunParallel call.
	specs func(sc scale, seed int64) []serve.JobSpec
	// probe tells the traced run's probe suite how this workload uses
	// the solver layers.
	probe func(sc scale) probeParams
	// Layers are the layers whose code the workload's units execute. A
	// traced run measures these and reports 0 for the others (perLayer).
	Layers []string
}

// exercises reports whether a traced run of w measures the layer.
func (w workload) exercises(layer string) bool {
	return layer == "machine" || layer == "trace" || slices.Contains(w.Layers, layer)
}

// probeParams are the solver settings and lattice the per-layer probes
// of a traced run use: the ones the workload's own jobs run with.
type probeParams struct {
	NX, NY, NZ int
	Fused      bool
	Workers    int
}

func (pp probeParams) params() *lbm.Params {
	p := lbm.WaterAir(pp.NX, pp.NY, pp.NZ)
	p.Fused = pp.Fused
	return p
}

func paperProbe(fused bool, workers int) func(scale) probeParams {
	return func(sc scale) probeParams {
		return probeParams{NX: sc.NX, NY: sc.NY, NZ: sc.NZ, Fused: fused, Workers: workers}
	}
}

func one(f func(sc scale) serve.JobSpec) func(scale, int64) []serve.JobSpec {
	return func(sc scale, _ int64) []serve.JobSpec { return []serve.JobSpec{f(sc)} }
}

var workloads = []workload{
	{
		Name:    "uniform_seq",
		Why:     "one paper-size wallforce job, f64 fused, 1 worker: lbm kernels do ~all the work, serve/comm/checkpoint ~none",
		Clients: 1,
		specs: one(func(sc scale) serve.JobSpec {
			return serve.JobSpec{Kind: serve.KindWallForce, NX: sc.NX, NY: sc.NY, NZ: sc.NZ,
				Steps: sc.UniformSteps, Fused: true, Workers: 1}
		}),
		probe:  paperProbe(true, 1),
		Layers: []string{"serve", "lbm"},
	},
	{
		Name:    "refined_w2",
		Why:     "same grid two-level refined, 2 workers: small blocks, 2:1 sub-cycling, transfer+renorm, level scheduling",
		Clients: 1,
		specs: one(func(sc scale) serve.JobSpec {
			return serve.JobSpec{Kind: serve.KindWallForce, NX: sc.NX, NY: sc.NY, NZ: sc.NZ,
				Steps: sc.RefinedSteps, Fused: true, Workers: 2,
				Refine: &lbm.RefineSpec{Levels: 2, WallLayers: sc.WallLayers}}
		}),
		probe:  paperProbe(true, 2),
		Layers: []string{"serve", "lbm", "refine"},
	},
	{
		Name:    "dist_ckpt",
		Why:     "paper-size distributed job, 2 ranks, coordinated checkpoints: parlbm halos, comm.Fabric, checkpoint I/O, gather",
		Clients: 1,
		specs: one(func(sc scale) serve.JobSpec {
			return serve.JobSpec{Kind: serve.KindDistributed, NX: sc.NX, NY: sc.NY, NZ: sc.NZ,
				Steps: sc.DistPhases, Ranks: 2, CheckpointInterval: sc.DistCkptEvery}
		}),
		probe:  paperProbe(false, 1),
		Layers: []string{"serve", "lbm", "parlbm", "comm", "checkpoint"},
	},
	{
		Name:    "dist_remap",
		Why:     "RunParallel with filtered remapping, one of 2 ranks throttled 2x: migration+control traffic beside halos",
		Clients: 1,
		probe:   paperProbe(false, 1),
		Layers:  []string{"lbm", "parlbm", "comm", "balance"},
	},
	{
		Name:    "small_jobs",
		Why:     "2 clients, many small mixed jobs: serve queue/schedule/persist, JSON, storage, solver construction dominate",
		Clients: 2,
		specs:   smallJobMix,
		probe: func(sc scale) probeParams {
			return probeParams{NX: sc.SNX, NY: sc.SNY, NZ: sc.SNZ, Fused: true, Workers: 1}
		},
		// slipd checkpoints every distributed job, asked to or not.
		Layers: []string{"serve", "lbm", "parlbm", "comm", "checkpoint"},
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// smallJobBlocks is how many 8-job blocks the small_jobs cycle holds.
const smallJobBlocks = 30

// smallJobMix builds the small_jobs cycle: 240 jobs in the fixed
// proportion 4 wallforce-f64-fused : 2 wallforce-f32 : 2 distributed,
// shuffled by the seed inside blocks of 8 so that any prefix the run
// gets through holds (nearly) the same mix.
func smallJobMix(sc scale, seed int64) []serve.JobSpec {
	base := serve.JobSpec{NX: sc.SNX, NY: sc.SNY, NZ: sc.SNZ, Steps: sc.SmallSteps}
	wf64, wf32, dist := base, base, base
	wf64.Kind, wf64.Fused = serve.KindWallForce, true
	wf32.Kind, wf32.Precision = serve.KindWallForce, "f32"
	dist.Kind, dist.Ranks = serve.KindDistributed, 2
	block := []serve.JobSpec{wf64, wf64, wf64, wf64, wf32, wf32, dist, dist}

	rng := rand.New(rand.NewSource(seed))
	out := make([]serve.JobSpec, 0, 8*smallJobBlocks)
	for b := 0; b < smallJobBlocks; b++ {
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		out = append(out, block...)
	}
	return out
}

// specKey identifies a job spec in golden.json.
func specKey(sp serve.JobSpec) string {
	prec := sp.Precision
	if prec == "" {
		prec = "f64"
	}
	key := fmt.Sprintf("%s/%dx%dx%d/steps=%d/%s", sp.Kind, sp.NX, sp.NY, sp.NZ, sp.Steps, prec)
	if sp.Fused {
		key += "/fused"
	}
	if sp.Refine != nil {
		key += fmt.Sprintf("/refine=%d:%d", sp.Refine.Levels, sp.Refine.WallLayers)
	}
	return key
}
