package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"microslip/internal/lbm"
)

// FuzzJobSpec drives arbitrary request bodies through the decode and
// validation a POST /jobs gets before anything is queued: it must never
// panic, every refusal must be an ErrBadSpec (HTTP 400), and an admitted
// spec must lie inside the default Limits — with the cell count taken in
// float64, where the product of three client-chosen ints cannot wrap.
func FuzzJobSpec(f *testing.F) {
	for _, seed := range []string{
		`{"kind":"wallforce","nx":4,"ny":16,"nz":4,"steps":40}`,
		`{"kind":"wallforce","nx":8,"ny":8,"nz":8,"steps":5,"workers":4,"fused":true,"precision":"f32","wall_limit_ms":1000}`,
		`{"kind":"steady","nx":4,"ny":8,"nz":4,"steps":100,"steady_tol":1e-6,"check_every":10}`,
		`{"kind":"distributed","nx":8,"ny":8,"nz":4,"steps":20,"ranks":4,"checkpoint_interval":5}`,
		`{"kind":"wallforce","nx":8,"ny":20,"nz":8,"steps":20,"refine":{"levels":2,"wall_layers":4}}`,
		`{"steps":60,"resume":"j-0000-000001"}`,
		`{"kind":"wallforce","nx":4294967296,"ny":4294967296,"nz":3,"steps":1}`,
		`{"kind":"wallforce","nx":2305843009213693952,"ny":4,"nz":4,"steps":1}`,
		`{"kind":"distributed","nx":-4,"ny":8,"nz":4,"steps":-1,"ranks":-2,"workers":-1}`,
		`{"kind":"distributed","nx":2,"ny":8,"nz":4,"steps":9223372036854775807,"ranks":1000000}`,
		`{"kind":"wallforce","nx":1e3,"ny":8,"nz":4,"steps":1}`,
		`{"kind":"wallforce","nx":4,"ny":8,"nz":4,"steps":1,"refine":{"levels":9,"wall_layers":-1}}`,
		`{"kind":"wallforce","nx":4,"ny":8,"nz":4,"steps":1,"bogus":1}`,
		`{"kind":`,
	} {
		f.Add([]byte(seed))
	}
	lim := Limits{}.withDefaults()
	f.Fuzz(func(t *testing.T, body []byte) {
		sp, err := decodeSpec(bytes.NewReader(body))
		if err == nil {
			err = sp.Validate(Limits{})
		}
		if err != nil {
			if !errors.Is(err, ErrBadSpec) {
				t.Fatalf("refusal of %q is not an ErrBadSpec: %v", body, err)
			}
			return
		}
		if sp.Steps < 1 || sp.Steps > lim.MaxSteps || sp.Workers < 0 || sp.Workers > lim.MaxWorkers {
			t.Fatalf("admitted steps/workers outside the limits: %+v", sp)
		}
		if sp.Resume != "" {
			return // geometry comes from the checkpoint
		}
		if sp.NX < 1 || sp.NY < 1 || sp.NZ < 1 ||
			float64(sp.NX)*float64(sp.NY)*float64(sp.NZ) > float64(lim.MaxCells) {
			t.Fatalf("admitted lattice outside the cell limit: %+v", sp)
		}
		if sp.Kind == KindDistributed {
			ranks := sp.Ranks
			if ranks == 0 {
				ranks = 2 // the server's default
			}
			if ranks < 1 || ranks > lim.MaxRanks || 2*ranks > sp.NX {
				t.Fatalf("admitted ranks outside the limits: %+v", sp)
			}
		}
	})
}

// statusSeeds are status records of the shapes the serve tests persist
// (a finished wallforce job, a steady job interrupted before its first
// sample, a distributed job with committed checkpoints, a refined job,
// a failed one), plus damaged files: truncated, mistyped, empty, null.
func statusSeeds(t testing.TB) [][]byte {
	at := time.Date(2026, 8, 6, 12, 0, 0, 123456789, time.UTC)
	later := at.Add(1500 * time.Millisecond)
	stages := Stages{QueueWaitMS: 0.5, ScheduleMS: 0.01, ComputeMS: 1490, PersistMS: 2}
	var seeds [][]byte
	for _, st := range []JobStatus{
		{ID: "j-0000-000001", State: StateDone, SubmittedAt: at, StartedAt: &at, FinishedAt: &later, Stages: stages,
			Spec:   JobSpec{Kind: KindWallForce, NX: 8, NY: 16, NZ: 6, Steps: 30, Workers: 2},
			Result: &Result{Steps: 30, MassWater: 1234.5, CenterVelocity: 1e-4, SlipLengthNM: 3.25}},
		{ID: "j-0000-000002", State: StateInterrupted, SubmittedAt: at, StartedAt: &at, FinishedAt: &later, Resumable: true,
			Spec:   JobSpec{Kind: KindSteady, NX: 8, NY: 32, NZ: 8, Steps: 400000, SteadyTol: 1e-9, CheckEvery: 100000, WallLimitMS: 150},
			Error:  "wall-clock limit reached",
			Result: &Result{Steps: 812}},
		{ID: "j-0000-000003", State: StateDone, SubmittedAt: at, FinishedAt: &later, Resumable: true,
			Spec:   JobSpec{Kind: KindDistributed, NX: 8, NY: 8, NZ: 4, Steps: 20, Ranks: 2, CheckpointInterval: 5},
			Result: &Result{Steps: 20, StartStep: 10, MassWater: 99.5, CheckpointPhase: 20}},
		{ID: "j-0000-000004", State: StateDone, SubmittedAt: at,
			Spec:   JobSpec{Kind: KindWallForce, NX: 8, NY: 20, NZ: 8, Steps: 10, Refine: &lbm.RefineSpec{Levels: 2, WallLayers: 4}},
			Result: &Result{Steps: 10, UpdateRatio: 2.5}},
		{ID: "j-0000-000005", State: StateFailed, SubmittedAt: at, Error: "lbm: non-finite density",
			Spec: JobSpec{Steps: 60, Resume: "j-0000-000002"}},
	} {
		buf, err := json.MarshalIndent(st, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		seeds = append(seeds, append(buf, '\n'))
	}
	return append(seeds,
		seeds[0][:len(seeds[0])/2],
		[]byte(`{"id":"j-0000-000006","state":7,"result":{"steps":"ten"}}`),
		[]byte(`{"id":"j-0000-000007","submitted_at":"not a time"}`),
		[]byte{},
		[]byte(`null`),
	)
}

// FuzzLoadStatus feeds arbitrary bytes to slipd's status.json read-back,
// which seeds the job index at every start. It must never panic, a
// damaged file must be an error other than ErrNoJob (the server skips
// it), and an accepted record must be what the server can serve and
// read again: it marshals, and the marshaled record, put back in place
// of the file, loads to the same record.
func FuzzLoadStatus(f *testing.F) {
	for _, seed := range statusSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		const id = "j-fuzz-000001"
		store, err := NewDirStorage(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(store.jobDir(id), "status.json")
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := store.LoadStatus(id)
		if err != nil {
			if errors.Is(err, ErrNoJob) {
				t.Fatalf("existing status.json refused as missing: %v", err)
			}
			return
		}
		served, err := json.Marshal(st)
		if err != nil {
			t.Fatalf("accepted status does not marshal: %v", err)
		}
		if err := os.WriteFile(path, served, 0o644); err != nil {
			t.Fatal(err)
		}
		again, err := store.LoadStatus(id)
		if err != nil {
			t.Fatalf("served status %s does not load: %v", served, err)
		}
		if back, _ := json.Marshal(again); !bytes.Equal(back, served) {
			t.Fatalf("status changed on reload:\n%s\n%s", served, back)
		}
	})
}
