package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
)

// runConfig is one workload run: what the driver's
// `--workload W --seed N --seconds S --trace T` asks for.
type runConfig struct {
	Workload workload
	Scale    scale
	Seed     int64
	Seconds  float64
	Trace    bool
	OutDir   string
}

// runResult is the contract line: the last line of standard output of a
// workload run, as one JSON object with exactly these keys.
type runResult struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`

	// Not part of the contract line: why operations failed, and the
	// expected-zero counters of a traced run.
	failures []string
	counts   map[string]float64
}

// measure runs one workload in this process: repeated set-up, one
// untimed unit, the timed section, then — after the clock has stopped —
// verification of every output. With cfg.Trace every unit is traced, the
// per-layer metrics are taken from the units, replays and probes of the
// layers the workload exercises, and the spans go to
// <out>/trace_<workload>.json.
func measure(cfg runConfig) (runResult, error) {
	runtime.GOMAXPROCS(workloadProcs(cfg.Workload.Clients))
	golden, err := loadGolden()
	if err != nil {
		return runResult{}, err
	}
	if err := os.MkdirAll(cfg.OutDir, 0o755); err != nil {
		return runResult{}, err
	}
	tmp, err := os.MkdirTemp(cfg.OutDir, "tmp-")
	if err != nil {
		return runResult{}, err
	}
	defer os.RemoveAll(tmp)

	var tr *tracer
	if cfg.Trace {
		tr = newTracer()
	}
	w, sc := cfg.Workload, cfg.Scale
	res := runResult{counts: map[string]float64{}}
	fail := func(what, why string) {
		res.Failed++
		res.failures = append(res.failures, what+": "+why)
	}

	// Set-up, several times over: boot a server, push the warm-up job.
	// The last service stays up for the timed section.
	var (
		svc    *service
		setups []float64
		warm   []unit
	)
	for i := 0; i < sc.SetupReps; i++ {
		if svc != nil {
			svc.close()
		}
		s, u, dt, err := setup(tmp, sc)
		if err != nil {
			return runResult{}, fmt.Errorf("set-up: %w", err)
		}
		svc, setups, warm = s, append(setups, dt), append(warm, u)
	}
	defer svc.close()

	var op func(idx int) unit
	if w.specs != nil {
		cycle := w.specs(sc, cfg.Seed)
		op = func(idx int) unit {
			u := svc.runJob(tr, fmt.Sprintf("%s-%d", w.Name, idx), cycle[idx%len(cycle)])
			svc.dropCheckpoints(u)
			return u
		}
	} else {
		pp := w.probe(sc)
		op = func(idx int) unit {
			return runRemapUnit(tr, fmt.Sprintf("%s-%d", w.Name, idx), sc, pp)
		}
	}
	// One unit off the clock: the first touches a gigabyte of fresh heap
	// and, on dist_ckpt, creates its checkpoint files in a cold page
	// cache. That is not the steady state the metrics describe, and with
	// four to seven units in a run it would be job_latency_p95_s.
	warm = append(warm, op(0))
	units, wall := timedSection(w.Clients, sc.MinUnits, cfg.Seconds, func(idx int) unit { return op(idx + 1) })

	// Verification, after the clock has stopped; nothing is re-run.
	check := func(u unit) string {
		if u.Remap != nil {
			return checkRemap(u, sc, golden)
		}
		return checkJob(u, golden)
	}
	for i, u := range warm {
		res.Attempted++
		if why := check(u); why != "" {
			fail(fmt.Sprintf("warm-up %d", i), why)
		}
	}
	var (
		lats []float64
		good []unit
	)
	if w.exercises("serve") {
		res.counts["serve.refused"] = 0
	}
	for i, u := range units {
		res.Attempted++
		if u.Refused {
			res.counts["serve.refused"]++
		}
		if why := check(u); why != "" {
			fail(fmt.Sprintf("unit %d", i), why)
			continue
		}
		lats, good = append(lats, u.Lat), append(good, u)
	}
	if len(good) == 0 {
		return res, fmt.Errorf("no unit succeeded: %v", res.failures)
	}

	if !cfg.Trace {
		m := newMetricSet(endToEnd)
		m.set("setup_s", median(setups))
		m.set("time_to_result_s", median(lats))
		m.set("job_latency_p95_s", percentile(lats, 0.95))
		m.set("jobs_per_s", float64(len(lats))/wall)
		m.set("peak_rss_mb", peakRSSMiB())
		res.Metrics = m.vals
	} else {
		m := newMetricSet(perLayer)
		m.set("trace.time_to_result_s", median(lats))
		pr := &probes{w: w, sc: sc, pp: w.probe(sc), tr: tr, m: m, tmp: tmp, counts: res.counts}
		pr.run(good, cfg.Seed)
		for _, why := range pr.fails {
			res.Attempted++
			fail("probe", why)
		}
		m.set("trace.spans", float64(tr.count()))
		if miss := m.settle(w); len(miss) > 0 {
			return res, fmt.Errorf("probes left metrics unset: %v (failures: %v)", miss, res.failures)
		}
		res.Metrics = m.vals
		if err := tr.write(filepath.Join(cfg.OutDir, "trace_"+w.Name+".json"), w.Name); err != nil {
			return res, err
		}
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// serveMetrics reduces the jobs' client-side timings and the Stages each
// job reports to the serve.* metrics. Failed jobs are not among them, so
// a refusal shows in the run's failed count and serve.refused, not here.
func serveMetrics(m *metricSet, jobs []unit) {
	var rtt, queue, sched, comp, persist, overhead, bytes []float64
	for _, u := range jobs {
		st := u.Status.Stages
		rtt = append(rtt, u.SubmitRTT*1e3)
		queue = append(queue, st.QueueWaitMS)
		sched = append(sched, st.ScheduleMS)
		comp = append(comp, st.ComputeMS)
		persist = append(persist, st.PersistMS)
		overhead = append(overhead, 1-st.ComputeMS/1e3/u.Lat)
		bytes = append(bytes, float64(u.StatusBytes))
	}
	m.set("serve.submit_rtt_ms_p50", median(rtt))
	m.set("serve.queue_wait_ms_p50", median(queue))
	m.set("serve.schedule_ms_p50", median(sched))
	m.set("serve.compute_ms_p50", median(comp))
	m.set("serve.persist_ms_p50", median(persist))
	m.set("serve.overhead_frac", median(overhead))
	m.set("serve.status_bytes", median(bytes))
}
