package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"microslip/internal/balance"
	"microslip/internal/parlbm"
	"microslip/internal/serve"
)

// service is one slipd under test: serve.Handler on a loopback
// httptest server over serve.NewDirStorage in a scratch directory, so
// "persisted" means status.json is on disk.
type service struct {
	dir    string
	srv    *serve.Server
	ts     *httptest.Server
	client *http.Client
}

// waitBudget is the long-poll budget per job; a job that outlives it is
// a failed operation.
const waitBudget = 150 * time.Second

func bootService(tmpRoot string) (*service, error) {
	dir, err := os.MkdirTemp(tmpRoot, "slipd-")
	if err != nil {
		return nil, err
	}
	store, err := serve.NewDirStorage(dir)
	if err != nil {
		return nil, err
	}
	srv, err := serve.NewServer(serve.Config{Storage: store, Pool: 2})
	if err != nil {
		return nil, err
	}
	ts := httptest.NewServer(serve.Handler(srv))
	// At most 2 client connections, whatever the client count.
	tr := &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}
	return &service{dir: dir, srv: srv, ts: ts,
		client: &http.Client{Transport: tr, Timeout: waitBudget + 10*time.Second}}, nil
}

func (s *service) close() {
	s.client.CloseIdleConnections()
	s.ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = s.srv.Shutdown(ctx) // idle by now; a drain error has nothing to report to
	os.RemoveAll(s.dir)
}

// unit is the outcome of one measured operation.
type unit struct {
	Lat  float64 // seconds, POST sent → status.json read back
	Fail string  // why the operation failed; "" when it did not

	// HTTP units.
	Spec        serve.JobSpec
	Status      *serve.JobStatus // as read back from the storage directory
	SubmitRTT   float64          // seconds, POST → 202
	StatusBytes int
	Refused     bool

	// dist_remap units.
	Remap *remapOutcome
}

// runJob drives one job through the HTTP API, closed loop: submit, long
// poll to the terminal state, then read status.json from the storage
// directory. tr may be nil (untraced).
func (s *service) runJob(tr *tracer, tag string, spec serve.JobSpec) (u unit) {
	u = unit{Spec: spec}
	body, err := json.Marshal(spec)
	if err != nil {
		u.Fail = err.Error()
		return u
	}
	t0 := time.Now()
	root := tr.begin(0, "job", tag)
	defer func() {
		u.Lat = time.Since(t0).Seconds()
		tr.end(root)
	}()

	var st serve.JobStatus
	sid := tr.begin(root, "http.submit", tag)
	code, err := s.call(http.MethodPost, "/jobs", body, &st)
	tr.end(sid)
	u.SubmitRTT = time.Since(t0).Seconds()
	if err != nil || code != http.StatusAccepted {
		u.Refused = code == http.StatusServiceUnavailable
		u.Fail = fmt.Sprintf("submit: status %d err %v", code, err)
		return u
	}

	wid := tr.begin(root, "http.wait", tag)
	path := fmt.Sprintf("/jobs/%s/wait?timeout_ms=%d", st.ID, waitBudget.Milliseconds())
	code, err = s.call(http.MethodGet, path, nil, &st)
	tr.end(wid)
	if err != nil || code != http.StatusOK {
		u.Fail = fmt.Sprintf("wait: status %d err %v", code, err)
		return u
	}

	rid := tr.begin(root, "storage.read_status", tag)
	buf, err := os.ReadFile(filepath.Join(s.dir, "jobs", st.ID, "status.json"))
	var disk serve.JobStatus
	if err == nil {
		err = json.Unmarshal(buf, &disk)
	}
	tr.end(rid)
	if err != nil {
		u.Fail = "persisted status: " + err.Error()
		return u
	}
	u.Status, u.StatusBytes = &disk, len(buf)
	return u
}

// dropCheckpoints removes a finished job's checkpoint directory, off the
// unit's clock. slipd keeps it for a resume that never comes here, and
// the six 244 MB sets of a dist_ckpt run add up to this box's threshold
// for background writeback (10 % of 16 GB): whether the flusher then hit
// a unit made job_latency_p95_s bimodal, 3.2 or 3.9 s.
func (s *service) dropCheckpoints(u unit) {
	if u.Status != nil {
		os.RemoveAll(filepath.Join(s.dir, "jobs", u.Status.ID, "ckpt"))
	}
}

// call does one request and decodes a JSON body into out on 2xx.
func (s *service) call(method, path string, body []byte, out any) (int, error) {
	req, err := http.NewRequest(method, s.ts.URL+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, nil
	}
	return resp.StatusCode, json.NewDecoder(resp.Body).Decode(out)
}

// setup boots a service and pushes the warm-up job through it; the
// interval is one setup_s sample.
func setup(tmpRoot string, sc scale) (*service, unit, float64, error) {
	t0 := time.Now()
	svc, err := bootService(tmpRoot)
	if err != nil {
		return nil, unit{}, 0, err
	}
	warm := svc.runJob(nil, "warmup", sc.warmSpec())
	return svc, warm, time.Since(t0).Seconds(), nil
}

// parRun is one RunParallel call as seen from outside: what the parlbm.*
// metrics are computed from.
type parRun struct {
	Results []*parlbm.Result
	Wall    float64 // seconds, call → return
	Phases  int
}

// remapOutcome is what one dist_remap unit leaves for verification and
// for the parlbm metrics.
type remapOutcome struct {
	parRun
	MassWater, MassAir float64
	NX                 int
	// PlaneChanges counts the phases at which rank 0's plane count
	// differed from the phase before: remapping rounds that moved planes.
	PlaneChanges int
}

// throttleItersPerCell makes the slow rank burn, per owned lattice cell
// and phase, roughly the CPU time computing that cell costs (~250 ns at
// 4 MLUPS), so it runs 2x slow. It burns a fixed amount of work, not a
// fixed time: a competing process on a non-dedicated node takes cycles,
// work scales with the machine's speed the way the solver's does, and
// it is not at the mercy of timer slack.
const throttleItersPerCell = 100

// burnNSPerIter is what one iteration of burn costs on the reference
// box; PhaseTime reports the throttle's cost from it.
const burnNSPerIter = 2.46

var burnSink float64

// burn runs a dependent multiply-add chain: CPU-bound, no memory
// traffic, nothing the compiler can shorten.
func burn(iters int) {
	x := 1.0
	for i := 0; i < iters; i++ {
		x = x*1.0000001 + 1e-9
	}
	if x < 0 {
		burnSink = x
	}
}

// throttledRank is the rank dist_remap slows down. It is fixed, not
// drawn from the seed: rank 0 also gathers the final fields, so which
// rank ends up with most planes decides the size of the gather message
// and with it the process's peak RSS (550 vs 740 MiB at paper size) — a
// seed-dependent mode no bound could hold.
const throttledRank = 1

// remapOptions builds the dist_remap run: the paper's filtered policy
// on 2 ranks with one rank throttled, and a synthetic PhaseTime that
// reports the matching cost so the remapping decisions (and with them
// the work of a unit) are deterministic. The throttle's burns are
// recorded as children of span parent, so the run's self time excludes
// them.
func remapOptions(sc scale, pp probeParams, phases int, tr *tracer, parent int, tag string) (parlbm.Options, *remapOutcome) {
	out := &remapOutcome{NX: pp.NX}
	plane := pp.NY * pp.NZ
	pol := balance.NewFiltered(plane)
	pol.Cfg.Interval, pol.Cfg.HistoryK = sc.RemapInterval, sc.RemapHistoryK
	perPlane := plane * throttleItersPerCell
	perPlaneSec := float64(perPlane) * burnNSPerIter / 1e9
	lastPlanes := -1 // rank 0's goroutine only; read after the run returns
	return parlbm.Options{
		Phases: phases,
		Policy: pol,
		Throttle: func(rank, planes, phase int) {
			if rank == 0 {
				if lastPlanes >= 0 && planes != lastPlanes {
					out.PlaneChanges++
				}
				lastPlanes = planes
			}
			if rank == throttledRank {
				id := tr.begin(parent, "throttle.burn", tag)
				burn(planes * perPlane)
				tr.end(id)
			}
		},
		PhaseTime: func(rank, planes, phase int) float64 {
			cost := float64(planes) * perPlaneSec
			if rank == throttledRank {
				cost *= 2
			}
			return cost
		},
	}, out
}

// runRemapUnit is the dist_remap operation: RunParallel under the
// filtered policy, then the gathered per-component mass (what a slipd
// distributed job reads from its result).
func runRemapUnit(tr *tracer, tag string, sc scale, pp probeParams) unit {
	var u unit
	t0 := time.Now()
	root := tr.begin(0, "unit", tag)
	pid := tr.begin(root, "parlbm.RunParallel", tag)
	opts, out := remapOptions(sc, pp, sc.RemapPhases, tr, pid, tag)
	u.Remap = out
	fields, results, err := parlbm.RunParallel(pp.params(), 2, opts)
	tr.end(pid)
	out.Wall, out.Phases = time.Since(t0).Seconds(), sc.RemapPhases
	if err == nil {
		mid := tr.begin(root, "field.TotalMass", tag)
		out.MassWater, out.MassAir = fields[0].TotalMass(), fields[1].TotalMass()
		tr.end(mid)
		results[0].Final = nil // verification needs the counters, not 122 MB of fields per unit
		out.Results = results
	} else {
		u.Fail = err.Error()
	}
	u.Lat = time.Since(t0).Seconds()
	tr.end(root)
	return u
}

// timedSection runs units closed loop on the workload's clients — each
// sends its next request only when the previous reply arrived — until
// the budget is spent (and at least minUnits ran), and returns them with
// the wall time from the first request to the last reply.
//
// A single client collects garbage before each unit, off the unit's
// clock: every unit then starts from the same heap, so its time and the
// process's peak RSS do not depend on how far the collector had got with
// the garbage of the unit before. Two clients overlap, so small_jobs
// runs with the collector's own pacing.
func timedSection(clients, minUnits int, seconds float64, op func(idx int) unit) ([]unit, float64) {
	var (
		mu    sync.Mutex
		units []unit
		next  atomic.Int64
		wg    sync.WaitGroup
	)
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				idx := int(next.Add(1) - 1)
				if idx >= minUnits && !time.Now().Before(deadline) {
					return
				}
				if clients == 1 {
					runtime.GC()
				}
				u := op(idx)
				mu.Lock()
				units = append(units, u)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return units, time.Since(start).Seconds()
}
