package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"microslip/internal/lbm"
)

// newTestServer boots a Server plus its HTTP front end; cleanup drains
// the pool before closing the listener so no worker outlives the test.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(Handler(s))
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
		ts.Close()
	})
	return s, ts
}

// smallSpec is a wallforce job that completes in milliseconds.
func smallSpec() JobSpec {
	return JobSpec{Kind: KindWallForce, NX: 4, NY: 16, NZ: 4, Steps: 40}
}

// longSpec is a job big enough to still be running when the test acts
// on it (cancel, drain); supervision stops it long before completion.
func longSpec() JobSpec {
	return JobSpec{Kind: KindWallForce, NX: 8, NY: 32, NZ: 8, Steps: 400000}
}

// postJob submits a spec and decodes the response, asserting the
// expected HTTP status.
func postJob(t *testing.T, ts *httptest.Server, spec any, wantCode int) JobStatus {
	t.Helper()
	buf, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+"/jobs", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantCode {
		var e apiError
		json.NewDecoder(resp.Body).Decode(&e)
		t.Fatalf("POST /jobs = %d (%s), want %d", resp.StatusCode, e.Error, wantCode)
	}
	if wantCode >= 300 {
		return JobStatus{}
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// getStatus fetches a job's status, asserting HTTP 200.
func getStatus(t *testing.T, ts *httptest.Server, path string) JobStatus {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d", path, resp.StatusCode)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// waitTerminal long-polls the wait endpoint until the job is terminal.
func waitTerminal(t *testing.T, ts *httptest.Server, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for {
		st := getStatus(t, ts, fmt.Sprintf("/jobs/%s/wait?timeout_ms=5000", id))
		if st.State.Terminal() {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s", id, st.State)
		}
	}
}

// waitProgress blocks until the job has streamed a frame with Step > 0.
// StateRunning alone does not mean progress: a job is marked running
// before its schedule stage builds the solver, so a cancel or drain
// right after the transition can land at step 0.
func waitProgress(t *testing.T, s *Server, id string) {
	t.Helper()
	frames, done, off, err := s.Subscribe(id)
	if err != nil {
		t.Fatal(err)
	}
	defer off()
	timeout := time.After(30 * time.Second)
	for {
		select {
		case f := <-frames:
			if f.Step > 0 {
				return
			}
		case <-done:
			t.Fatalf("job %s ended before streaming a step", id)
		case <-timeout:
			t.Fatalf("job %s never streamed a step", id)
		}
	}
}

func TestLifecycleSubmitToDone(t *testing.T) {
	s, ts := newTestServer(t, Config{Pool: 2, StreamEvery: 10})

	st := postJob(t, ts, smallSpec(), http.StatusAccepted)
	if st.ID == "" || st.State != StateQueued {
		t.Fatalf("submit status = %+v", st)
	}
	fin := waitTerminal(t, ts, st.ID)
	if fin.State != StateDone {
		t.Fatalf("state = %s (%s), want done", fin.State, fin.Error)
	}
	if fin.Result == nil || fin.Result.Steps != 40 {
		t.Fatalf("result = %+v, want 40 steps", fin.Result)
	}
	if fin.Result.MassWater <= 0 {
		t.Errorf("mass_water = %v", fin.Result.MassWater)
	}
	if fin.StartedAt == nil || fin.FinishedAt == nil {
		t.Error("started_at/finished_at not set")
	}
	if fin.Stages.ComputeMS <= 0 {
		t.Errorf("compute stage not measured: %+v", fin.Stages)
	}

	// The job shows up in the listing and in the per-stage metrics.
	resp, err := ts.Client().Get(ts.URL + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var list []JobStatus
	err = json.NewDecoder(resp.Body).Decode(&list)
	resp.Body.Close()
	if err != nil || len(list) != 1 || list[0].ID != st.ID {
		t.Fatalf("list = %+v, %v", list, err)
	}
	// The worker records the compute and persist samples just after it
	// publishes the terminal state, so a client that saw "done" can be
	// ahead of them: wait for the last sample before reading /metrics.
	for deadline := time.Now().Add(30 * time.Second); s.Metrics().Snapshot().Stages["compute"].Count == 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	resp, err = ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var ms MetricsSnapshot
	err = json.NewDecoder(resp.Body).Decode(&ms)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if ms.Submitted != 1 || ms.States[StateDone] != 1 {
		t.Errorf("metrics = %+v", ms)
	}
	for _, stage := range []string{"queue_wait", "schedule", "compute", "persist"} {
		if ms.Stages[stage].Count != 1 {
			t.Errorf("stage %s count = %d, want 1", stage, ms.Stages[stage].Count)
		}
	}
}

func TestValidationRejects(t *testing.T) {
	_, ts := newTestServer(t, Config{Pool: 1})

	bad := map[string]JobSpec{
		"zero steps":      {Kind: KindWallForce, NX: 4, NY: 8, NZ: 4},
		"negative steps":  {Kind: KindWallForce, NX: 4, NY: 8, NZ: 4, Steps: -5},
		"negative nx":     {Kind: KindWallForce, NX: -4, NY: 8, NZ: 4, Steps: 10},
		"tiny ny":         {Kind: KindWallForce, NX: 4, NY: 1, NZ: 4, Steps: 10},
		"unknown kind":    {Kind: "turbulent", NX: 4, NY: 8, NZ: 4, Steps: 10},
		"bad precision":   {Kind: KindWallForce, NX: 4, NY: 8, NZ: 4, Steps: 10, Precision: "f16"},
		"steady no tol":   {Kind: KindSteady, NX: 4, NY: 8, NZ: 4, Steps: 10},
		"negative ranks":  {Kind: KindDistributed, NX: 4, NY: 8, NZ: 4, Steps: 10, Ranks: -2},
		"ranks beyond nx": {Kind: KindDistributed, NX: 4, NY: 8, NZ: 4, Steps: 10, Ranks: 8},
		"negative wall":   {Kind: KindWallForce, NX: 4, NY: 8, NZ: 4, Steps: 10, WallLimitMS: -1},
		"over cell cap":   {Kind: KindWallForce, NX: 1 << 12, NY: 1 << 12, NZ: 1 << 12, Steps: 10},
		"cells overflow":  {Kind: KindWallForce, NX: 1 << 32, NY: 1 << 32, NZ: 3, Steps: 1},
		"unknown resume":  {Steps: 10, Resume: "j-0000-000099"},
	}
	for name, spec := range bad {
		code := http.StatusBadRequest
		if name == "unknown resume" {
			code = http.StatusNotFound
		}
		postJob(t, ts, spec, code)
	}
	// Unknown JSON fields and malformed bodies are client errors too.
	postJob(t, ts, map[string]any{"kind": "wallforce", "nx": 4, "ny": 8, "nz": 4, "steps": 10, "bogus": 1},
		http.StatusBadRequest)

	// Unknown job ids are 404 on every per-job route.
	for _, path := range []string{"/jobs/nope", "/jobs/nope/wait", "/jobs/nope/stream"} {
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s = %d, want 404", path, resp.StatusCode)
		}
	}
	resp, err := ts.Client().Post(ts.URL+"/jobs/nope/cancel", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("cancel unknown = %d, want 404", resp.StatusCode)
	}
}

func TestStreamDeliversFramesAndTerminalState(t *testing.T) {
	_, ts := newTestServer(t, Config{Pool: 1, StreamEvery: 5})

	spec := smallSpec()
	spec.Steps = 200
	st := postJob(t, ts, spec, http.StatusAccepted)
	resp, err := ts.Client().Get(ts.URL + "/jobs/" + st.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("stream content type %q", ct)
	}
	var frames []Frame
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var f Frame
		if err := json.Unmarshal(sc.Bytes(), &f); err != nil {
			t.Fatalf("bad stream line %q: %v", sc.Text(), err)
		}
		frames = append(frames, f)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(frames) == 0 {
		t.Fatal("no frames streamed")
	}
	last := frames[len(frames)-1]
	if last.State != StateDone {
		t.Fatalf("final frame = %+v, want terminal done", last)
	}
	for _, f := range frames[:len(frames)-1] {
		if f.State != "" {
			t.Errorf("non-final frame carries state: %+v", f)
		}
		if f.MassWater <= 0 {
			t.Errorf("frame without mass sample: %+v", f)
		}
	}
}

func TestCancelRunningJob(t *testing.T) {
	s, ts := newTestServer(t, Config{Pool: 1, StreamEvery: 20})

	st := postJob(t, ts, longSpec(), http.StatusAccepted)
	waitProgress(t, s, st.ID)
	resp, err := ts.Client().Post(ts.URL+"/jobs/"+st.ID+"/cancel", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel = %d", resp.StatusCode)
	}
	fin := waitTerminal(t, ts, st.ID)
	if fin.State != StateCanceled {
		t.Fatalf("state = %s (%s), want canceled", fin.State, fin.Error)
	}
	if fin.Result == nil || fin.Result.Steps <= 0 || fin.Result.Steps >= 400000 {
		t.Errorf("canceled mid-run but steps = %+v", fin.Result)
	}
	// In-memory storage offers no checkpoints: not resumable, and a
	// resume attempt is a client error.
	if fin.Resumable {
		t.Error("MemStorage job marked resumable")
	}
	postJob(t, ts, JobSpec{Steps: 10, Resume: st.ID}, http.StatusBadRequest)
}

func TestWallLimitInterruptsJob(t *testing.T) {
	_, ts := newTestServer(t, Config{Pool: 1, StreamEvery: 20})

	spec := longSpec()
	spec.WallLimitMS = 150
	st := postJob(t, ts, spec, http.StatusAccepted)
	fin := waitTerminal(t, ts, st.ID)
	if fin.State != StateInterrupted {
		t.Fatalf("state = %s (%s), want interrupted", fin.State, fin.Error)
	}
	if !strings.Contains(fin.Error, "wall-clock") {
		t.Errorf("error %q does not name the wall limit", fin.Error)
	}
}

// A steady job interrupted before its first residual sample has no
// residual to report: its status must still persist (JSON cannot carry
// the criterion's +Inf starting value), so the job ends interrupted and
// resumable, with a decodable status and status.json beside its
// checkpoint.
func TestSteadyInterruptBeforeFirstSample(t *testing.T) {
	dir := t.TempDir()
	store, err := NewDirStorage(dir)
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Pool: 1, StreamEvery: 20, Storage: store})

	spec := JobSpec{Kind: KindSteady, NX: 8, NY: 32, NZ: 8, Steps: 400000,
		SteadyTol: 1e-9, CheckEvery: 100000, WallLimitMS: 150}
	st := postJob(t, ts, spec, http.StatusAccepted)
	fin := waitTerminal(t, ts, st.ID)
	if fin.State != StateInterrupted || !fin.Resumable {
		t.Fatalf("state = %s resumable=%v (%s), want interrupted and resumable", fin.State, fin.Resumable, fin.Error)
	}
	if fin.Result == nil || fin.Result.Steps <= 0 || fin.Result.Steps >= spec.CheckEvery {
		t.Fatalf("result %+v, want a partial first window", fin.Result)
	}
	if fin.Result.Residual != 0 {
		t.Errorf("residual %v reported before the first sample", fin.Result.Residual)
	}
	if got := getStatus(t, ts, "/jobs/"+st.ID); got.State != StateInterrupted {
		t.Errorf("GET /jobs/{id} state = %s, want interrupted", got.State)
	}
	job := filepath.Join(dir, "jobs", st.ID)
	buf, err := os.ReadFile(filepath.Join(job, "status.json"))
	if err != nil {
		t.Fatalf("status.json not persisted: %v", err)
	}
	var disk JobStatus
	if err := json.Unmarshal(buf, &disk); err != nil || disk.State != StateInterrupted {
		t.Fatalf("status.json = %s (%v), want an interrupted status", buf, err)
	}
	if _, err := os.Stat(filepath.Join(job, "ckpt", stateFileName)); err != nil {
		t.Errorf("interrupt checkpoint missing: %v", err)
	}
}

func TestDrainInterruptsAndCheckpointsInFlight(t *testing.T) {
	dir := t.TempDir()
	store, err := NewDirStorage(dir)
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
	// Draining refuses new work with 503 (and reports unhealthy).
	postJob(t, ts, smallSpec(), http.StatusServiceUnavailable)
	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz while draining = %d, want 503", resp.StatusCode)
	}

	fin := getStatus(t, ts, "/jobs/"+st.ID)
	if fin.State != StateInterrupted {
		t.Fatalf("state = %s (%s), want interrupted", fin.State, fin.Error)
	}
	if !fin.Resumable {
		t.Fatal("interrupted job with dir storage not resumable")
	}

	// A fresh server over the same storage resumes the job from its
	// checkpoint and runs it the requested additional steps.
	s2, ts2 := newTestServer(t, Config{Pool: 1, StreamEvery: 20, Storage: store})
	got := getStatus(t, ts2, "/jobs/"+st.ID)
	if got.State != StateInterrupted || !got.Resumable {
		t.Fatalf("restarted server lost the job: %+v", got)
	}
	re := postJob(t, ts2, JobSpec{Steps: 60, Resume: st.ID}, http.StatusAccepted)
	refin := waitTerminal(t, ts2, re.ID)
	if refin.State != StateDone {
		t.Fatalf("resume state = %s (%s), want done", refin.State, refin.Error)
	}
	if refin.Result == nil || refin.Result.StartStep <= 0 {
		t.Fatalf("resume did not continue from the checkpoint: %+v", refin.Result)
	}
	if refin.Result.Steps != refin.Result.StartStep+60 {
		t.Errorf("resume ran %d..%d, want +60", refin.Result.StartStep, refin.Result.Steps)
	}
	_ = s2
}

func TestDistributedJobCommitsCheckpoints(t *testing.T) {
	store, err := NewDirStorage(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Pool: 1, Storage: store, StreamEvery: 4})

	spec := JobSpec{Kind: KindDistributed, NX: 8, NY: 12, NZ: 6, Steps: 12, Ranks: 2, CheckpointInterval: 4}
	st := postJob(t, ts, spec, http.StatusAccepted)
	fin := waitTerminal(t, ts, st.ID)
	if fin.State != StateDone {
		t.Fatalf("state = %s (%s), want done", fin.State, fin.Error)
	}
	if fin.Result == nil || fin.Result.CheckpointPhase < 4 {
		t.Fatalf("no committed coordinated checkpoint: %+v", fin.Result)
	}
	if !fin.Resumable {
		t.Error("distributed job with committed checkpoints not resumable")
	}
}

// JobSpec.Fused is accepted and ignored: a job with "fused": true and
// one with "fused": false persist byte-identical results in their
// status.json, on a uniform and on a refined lattice.
func TestFusedSpecIsIgnored(t *testing.T) {
	dir := t.TempDir()
	store, err := NewDirStorage(dir)
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Pool: 2, Storage: store, StreamEvery: 10})
	persistedResult := func(id string) json.RawMessage {
		t.Helper()
		buf, err := os.ReadFile(filepath.Join(dir, "jobs", id, "status.json"))
		if err != nil {
			t.Fatal(err)
		}
		var doc map[string]json.RawMessage
		if err := json.Unmarshal(buf, &doc); err != nil {
			t.Fatal(err)
		}
		return doc["result"]
	}
	for _, spec := range []JobSpec{
		{Kind: KindWallForce, NX: 8, NY: 16, NZ: 6, Steps: 30, Workers: 2},
		{Kind: KindWallForce, NX: 8, NY: 20, NZ: 8, Steps: 10, Refine: &lbm.RefineSpec{Levels: 2, WallLayers: 4}},
	} {
		var results [2]json.RawMessage
		for i, fused := range []bool{false, true} {
			sp := spec
			sp.Fused = fused
			fin := waitTerminal(t, ts, postJob(t, ts, sp, http.StatusAccepted).ID)
			if fin.State != StateDone {
				t.Fatalf("fused=%v: state = %s (%s), want done", fused, fin.State, fin.Error)
			}
			results[i] = persistedResult(fin.ID)
		}
		if len(results[0]) == 0 || !bytes.Equal(results[0], results[1]) {
			t.Errorf("refine=%v: persisted results differ:\nfused=false %s\nfused=true  %s", spec.Refine != nil, results[0], results[1])
		}
	}
}

func TestQueueFullRefusesWith503(t *testing.T) {
	s, ts := newTestServer(t, Config{Pool: 1, QueueDepth: 1, StreamEvery: 20})

	// Occupy the single worker, then fill the single queue slot; the
	// worker may dequeue between submissions, so submit until refused.
	ids := []string{postJob(t, ts, longSpec(), http.StatusAccepted).ID}
	refused := false
	for i := 0; i < 4 && !refused; i++ {
		_, err := s.Submit(longSpec())
		switch {
		case err == nil:
		case ErrQueueFull == err || strings.Contains(err.Error(), "queue full"):
			refused = true
		default:
			t.Fatalf("Submit: %v", err)
		}
	}
	if !refused {
		t.Fatal("bounded queue never refused")
	}
	// The HTTP layer maps the refusal to 503.
	resp, err := ts.Client().Post(ts.URL+"/jobs", "application/json",
		strings.NewReader(`{"kind":"wallforce","nx":8,"ny":32,"nz":8,"steps":400000}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit over full queue = %d, want 503", resp.StatusCode)
	}
	for _, id := range ids {
		s.Cancel(id)
	}
}

func TestSteadyJobConverges(t *testing.T) {
	_, ts := newTestServer(t, Config{Pool: 1, StreamEvery: 50})

	spec := JobSpec{Kind: KindSteady, NX: 4, NY: 16, NZ: 4, Steps: 20000, SteadyTol: 1e-3, CheckEvery: 200}
	st := postJob(t, ts, spec, http.StatusAccepted)
	fin := waitTerminal(t, ts, st.ID)
	if fin.State != StateDone {
		t.Fatalf("state = %s (%s), want done", fin.State, fin.Error)
	}
	if fin.Result == nil || !fin.Result.Converged {
		t.Fatalf("steady job did not converge: %+v", fin.Result)
	}
	if fin.Result.Steps >= 20000 {
		t.Errorf("converged only at the step budget: %+v", fin.Result)
	}
	if fin.Result.Residual <= 0 || fin.Result.Residual >= 1e-3 {
		t.Errorf("residual %v not below the tolerance", fin.Result.Residual)
	}
}
