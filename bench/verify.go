package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"os"

	"microslip/internal/lbm"
	"microslip/internal/parlbm"
	"microslip/internal/serve"
)

// golden.json pins the physics outputs of every job spec the benchmark
// submits. The solvers are bit-identical across workers, ranks and
// halo formats by construction, so each value is recorded once (by
// -record-golden) from the plainest solver that computes it: a
// sequential 1-worker job, unfused for the distributed specs, and a
// no-policy run for dist_remap.
//
//go:embed golden.json
var goldenJSON []byte

type goldenEntry struct {
	MassWater    float64 `json:"mass_water"`
	MassAir      float64 `json:"mass_air,omitempty"`
	SlipLengthNM float64 `json:"slip_length_nm,omitempty"`
}

func loadGolden() (map[string]goldenEntry, error) {
	g := map[string]goldenEntry{}
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return g, nil
}

// relClose reports |a-b| <= tol*|b| (exact match required when b is 0).
func relClose(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*math.Abs(b)
}

// remapKey identifies the dist_remap golden.
func remapKey(sc scale) string {
	return fmt.Sprintf("remap/%dx%dx%d/phases=%d", sc.NX, sc.NY, sc.NZ, sc.RemapPhases)
}

// lastCheckpoint is the newest coordinated checkpoint a distributed job
// of `phases` phases commits: parlbm checkpoints after every interval-th
// phase except the last one (a finished run needs no resume point).
func lastCheckpoint(phases, interval int) int {
	return (phases - 1) / interval * interval
}

// checkJob verifies one finished HTTP unit against its spec and golden.
// It returns "" when every check passes.
func checkJob(u unit, golden map[string]goldenEntry) string {
	st := u.Status
	switch {
	case u.Fail != "":
		return u.Fail
	case st.State != serve.StateDone:
		return fmt.Sprintf("state %s: %s", st.State, st.Error)
	case st.Result == nil:
		return "no result"
	case st.Result.Steps != u.Spec.Steps:
		return fmt.Sprintf("steps %d, asked %d", st.Result.Steps, u.Spec.Steps)
	}
	key := specKey(u.Spec)
	want, ok := golden[key]
	if !ok {
		return "no golden for " + key + " (run -record-golden)"
	}
	res := st.Result
	// Distributed results must equal the sequential golden to 1e-12; the
	// rest are the same solver and are held to 1e-9.
	tol := 1e-9
	if u.Spec.Kind == serve.KindDistributed {
		tol = 1e-12
	}
	if !relClose(res.MassWater, want.MassWater, tol) {
		return fmt.Sprintf("%s: mass_water %.17g, golden %.17g", key, res.MassWater, want.MassWater)
	}
	if u.Spec.Kind == serve.KindWallForce && !relClose(res.SlipLengthNM, want.SlipLengthNM, 1e-9) {
		return fmt.Sprintf("%s: slip_length_nm %.17g, golden %.17g", key, res.SlipLengthNM, want.SlipLengthNM)
	}
	if u.Spec.Kind == serve.KindDistributed && u.Spec.CheckpointInterval > 0 {
		if want := lastCheckpoint(u.Spec.Steps, u.Spec.CheckpointInterval); res.CheckpointPhase != want {
			return fmt.Sprintf("%s: newest committed checkpoint %d, want %d", key, res.CheckpointPhase, want)
		}
	}
	if u.Spec.Refine != nil {
		refined, fineEq, err := u.Spec.Refine.SiteUpdatesPerStep(lbm.WaterAir(u.Spec.NX, u.Spec.NY, u.Spec.NZ))
		if err != nil || res.UpdateRatio != fineEq/refined {
			return fmt.Sprintf("%s: update_ratio %v, closed form %v (err %v)", key, res.UpdateRatio, fineEq/refined, err)
		}
	}
	return ""
}

// checkRemap verifies one dist_remap unit: planes moved, the final
// decomposition tiles the lattice, no transport retries, and migration
// changed nothing physical (mass equals the no-policy golden).
func checkRemap(u unit, sc scale, golden map[string]goldenEntry) string {
	if u.Fail != "" {
		return u.Fail
	}
	r := u.Remap
	planes, migrated, retries := 0, 0, int64(0)
	for _, res := range r.Results {
		planes += res.FinalCount
		migrated += res.PlanesSent
		retries += res.Comm.Retries
	}
	want, ok := golden[remapKey(sc)]
	switch {
	case !ok:
		return "no golden for " + remapKey(sc) + " (run -record-golden)"
	case migrated == 0:
		return "no plane migrated"
	case planes != r.NX:
		return fmt.Sprintf("final plane counts sum to %d, want %d", planes, r.NX)
	case retries != 0:
		return fmt.Sprintf("%d transport retries", retries)
	case !relClose(r.MassWater, want.MassWater, 1e-12) || !relClose(r.MassAir, want.MassAir, 1e-12):
		return fmt.Sprintf("gathered mass %.17g/%.17g, no-policy golden %.17g/%.17g", r.MassWater, r.MassAir, want.MassWater, want.MassAir)
	}
	return ""
}

// recordGolden recomputes golden.json for both scales and writes it to
// path. Job goldens come from slipd itself, run on each spec's plain
// sequential twin; the dist_remap golden from a no-policy RunParallel.
func recordGolden(path, tmpRoot string) error {
	golden := map[string]goldenEntry{}
	for _, sc := range []scale{fullScale, smokeScale} {
		svc, err := bootService(tmpRoot)
		if err != nil {
			return err
		}
		specs := []serve.JobSpec{sc.warmSpec()}
		for _, w := range workloads {
			if w.specs != nil {
				specs = append(specs, w.specs(sc, 1)...)
			}
		}
		for _, sp := range specs {
			key := specKey(sp)
			if _, done := golden[key]; done {
				continue
			}
			twin := sp
			twin.Workers, twin.Ranks, twin.CheckpointInterval = 1, 0, 0
			twin.Kind = serve.KindWallForce // distributed → the sequential solver
			u := svc.runJob(nil, "golden", twin)
			if u.Fail != "" || u.Status.State != serve.StateDone {
				svc.close()
				return fmt.Errorf("golden %s: %s %v", key, u.Fail, u.Status)
			}
			e := goldenEntry{MassWater: u.Status.Result.MassWater}
			if sp.Kind == serve.KindWallForce {
				e.SlipLengthNM = u.Status.Result.SlipLengthNM
			}
			golden[key] = e
			fmt.Fprintf(os.Stderr, "golden %-60s mass_water=%.17g slip_nm=%.17g\n", key, e.MassWater, e.SlipLengthNM)
		}
		svc.close()

		fields, _, err := parlbm.RunParallel(lbm.WaterAir(sc.NX, sc.NY, sc.NZ), 2, parlbm.Options{Phases: sc.RemapPhases})
		if err != nil {
			return fmt.Errorf("golden %s: %w", remapKey(sc), err)
		}
		golden[remapKey(sc)] = goldenEntry{MassWater: fields[0].TotalMass(), MassAir: fields[1].TotalMass()}
	}
	buf, err := json.MarshalIndent(golden, "", "  ") // map keys marshal sorted
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %d goldens to %s\n", len(golden), path)
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}
