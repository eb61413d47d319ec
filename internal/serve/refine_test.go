package serve

import (
	"context"
	"net/http"
	"testing"
	"time"

	"microslip/internal/lbm"
)

// refinedSpec is a refined wallforce job that completes quickly.
func refinedSpec() JobSpec {
	return JobSpec{Kind: KindWallForce, NX: 8, NY: 20, NZ: 8, Steps: 20,
		Refine: &lbm.RefineSpec{Levels: 2, WallLayers: 4}}
}

func TestRefinedJobRunsToDone(t *testing.T) {
	_, ts := newTestServer(t, Config{Pool: 1, StreamEvery: 10})
	st := postJob(t, ts, refinedSpec(), http.StatusAccepted)
	fin := waitTerminal(t, ts, st.ID)
	if fin.State != StateDone {
		t.Fatalf("state = %s (%s), want done", fin.State, fin.Error)
	}
	if fin.Result == nil || fin.Result.Steps != 20 {
		t.Fatalf("result = %+v, want 20 composite steps", fin.Result)
	}
	sp := refinedSpec()
	refined, fineEq, err := sp.Refine.SiteUpdatesPerStep(lbm.WaterAir(sp.NX, sp.NY, sp.NZ))
	if err != nil || fin.Result.UpdateRatio != fineEq/refined {
		t.Errorf("update_ratio = %v, descriptor says %v (err %v)", fin.Result.UpdateRatio, fineEq/refined, err)
	}
	if fin.Spec.Refine == nil || *fin.Spec.Refine != (lbm.RefineSpec{Levels: 2, WallLayers: 4}) {
		t.Errorf("status spec lost the refine descriptor: %+v", fin.Spec.Refine)
	}
}

func TestRefinedSpecValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{Pool: 1})
	cases := []struct {
		name   string
		mutate func(*JobSpec)
	}{
		{"distributed", func(sp *JobSpec) { sp.Kind = KindDistributed }},
		{"wall layers exceed channel", func(sp *JobSpec) { sp.Refine.WallLayers = 30 }},
		{"unsupported level count", func(sp *JobSpec) { sp.Refine.Levels = 3 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sp := refinedSpec()
			tc.mutate(&sp)
			postJob(t, ts, sp, http.StatusBadRequest)
		})
	}
}

// TestRefinedDrainCheckpointsAndResumes interrupts a running refined
// job by draining the server, then resumes it on a fresh server over
// the same storage: the refined checkpoint container round-trips
// through the persist and resume stages and the continuation picks up
// at the interrupted composite step.
func TestRefinedDrainCheckpointsAndResumes(t *testing.T) {
	store, err := NewDirStorage(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, Config{Pool: 1, StreamEvery: 5, Storage: store})

	long := refinedSpec()
	long.NY = 40
	long.Refine.WallLayers = 8
	long.Steps = 400000
	st := postJob(t, ts, long, http.StatusAccepted)
	waitProgress(t, s, st.ID)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	fin := getStatus(t, ts, "/jobs/"+st.ID)
	if fin.State != StateInterrupted {
		t.Fatalf("state = %s (%s), want interrupted", fin.State, fin.Error)
	}
	if !fin.Resumable {
		t.Fatal("interrupted refined job with dir storage not resumable")
	}

	_, ts2 := newTestServer(t, Config{Pool: 1, StreamEvery: 5, Storage: store})
	re := postJob(t, ts2, JobSpec{Steps: 3, Resume: st.ID}, http.StatusAccepted)
	refin := waitTerminal(t, ts2, re.ID)
	if refin.State != StateDone {
		t.Fatalf("resume state = %s (%s), want done", refin.State, refin.Error)
	}
	if refin.Result == nil || refin.Result.StartStep <= 0 {
		t.Fatalf("resume did not continue from the refined checkpoint: %+v", refin.Result)
	}
	if refin.Result.Steps != refin.Result.StartStep+3 {
		t.Errorf("resume ran %d..%d, want +3", refin.Result.StartStep, refin.Result.Steps)
	}
	if refin.Result.UpdateRatio <= 0 {
		t.Errorf("resumed refined job lost update_ratio: %+v", refin.Result)
	}
}
