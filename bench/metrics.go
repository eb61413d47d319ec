package main

import (
	"encoding/json"
	"strings"
)

// metricDef names one metric of the benchmark. The two tables below are
// the single source of the names: BENCHMARK.json lists exactly these
// (bench_test.go checks it), every run emits exactly these, and later
// issues quote them verbatim.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the median it may worsen
	// Count marks a per-layer metric that the program computes rather
	// than times: it must repeat exactly between two runs of one commit.
	Count bool
}

// endToEnd are what a user of the system sees, measured with tracing
// off, on every workload. A "unit" is one job (POST /jobs → persisted
// status.json) or, on dist_remap, one RunParallel call.
//
// Each bound is three times the widest inter-quartile spread that ten
// runs of one commit (ten seeds) showed for the metric on any workload
// of the reference box on a quiet day, rounded up to the next 5 % and
// capped at the contract's 25 % (README, "Noise"): the driver's contract
// wants every spread within a third of its bound. A host too busy to
// resolve a bound is -compare's "unresolved", not a wider bound.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "time_to_result_s", Unit: "s", Better: "lower", Bound: 0.20},
	{Name: "jobs_per_s", Unit: "1/s", Better: "higher", Bound: 0.20},
	{Name: "job_latency_p95_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MiB", Better: "lower", Bound: 0.25},
}

// perLayer are measured from outside each package by a traced run. A
// metric's layer is its name up to the dot. A workload's traced run
// measures the layers the workload exercises (workload.Layers) — from
// its own units where the layer's public outputs reach the benchmark,
// from a replay with the job's exact options or a probe on the
// workload's lattice where they do not — and reports 0 for the others:
// uniform_seq spends no time in parlbm. machine.* and trace.* are not
// layers and are measured on every workload.
var perLayer = []metricDef{
	{Name: "serve.submit_rtt_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.queue_wait_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.schedule_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.compute_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.persist_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.overhead_frac", Unit: "frac", Better: "lower"},
	{Name: "serve.status_bytes", Unit: "bytes", Better: "lower"},

	{Name: "lbm.new_solver_s", Unit: "s", Better: "lower"},
	{Name: "lbm.advance_ns_per_cell", Unit: "ns", Better: "lower"},
	{Name: "lbm.densities_ns_per_cell", Unit: "ns", Better: "lower"},
	{Name: "lbm.collide_ns_per_cell", Unit: "ns", Better: "lower"},
	{Name: "lbm.stream_ns_per_cell", Unit: "ns", Better: "lower"},
	{Name: "lbm.par_speedup_w2", Unit: "ratio", Better: "higher"},
	{Name: "lbm.bytes_per_cell_computed", Unit: "bytes", Better: "lower", Count: true},
	{Name: "lbm.computed_gbps", Unit: "GB/s", Better: "higher"},

	{Name: "refine.composite_step_ms", Unit: "ms", Better: "lower"},
	{Name: "refine.update_ratio", Unit: "ratio", Better: "higher", Count: true},
	{Name: "refine.coupling_frac", Unit: "frac", Better: "lower"},
	{Name: "refine.mass_drift_rel", Unit: "frac", Better: "lower", Count: true},

	{Name: "parlbm.compute_s", Unit: "s", Better: "lower"},
	{Name: "parlbm.comm_s", Unit: "s", Better: "lower"},
	{Name: "parlbm.remap_s", Unit: "s", Better: "lower"},
	{Name: "parlbm.checkpoint_s", Unit: "s", Better: "lower"},
	{Name: "parlbm.imbalance", Unit: "ratio", Better: "lower"},
	{Name: "parlbm.setup_gather_s", Unit: "s", Better: "lower"},
	{Name: "parlbm.halo_bytes_per_phase", Unit: "bytes", Better: "lower", Count: true},
	{Name: "parlbm.halo_msgs_per_phase", Unit: "count", Better: "lower", Count: true},
	{Name: "parlbm.migration_bytes", Unit: "bytes", Better: "lower", Count: true},
	{Name: "parlbm.planes_migrated", Unit: "count", Better: "higher", Count: true},
	{Name: "parlbm.control_msgs", Unit: "count", Better: "lower", Count: true},
	{Name: "parlbm.gather_bytes", Unit: "bytes", Better: "lower", Count: true},

	{Name: "comm.fabric_exchange_us", Unit: "us", Better: "lower"},
	{Name: "comm.tcp_exchange_us", Unit: "us", Better: "lower"},
	{Name: "comm.barrier_us", Unit: "us", Better: "lower"},
	{Name: "comm.allgather_us", Unit: "us", Better: "lower"},

	{Name: "checkpoint.save_state_s", Unit: "s", Better: "lower"},
	{Name: "checkpoint.load_state_s", Unit: "s", Better: "lower"},
	{Name: "checkpoint.state_bytes", Unit: "bytes", Better: "lower", Count: true},
	{Name: "checkpoint.state_bytes_f32", Unit: "bytes", Better: "lower", Count: true},
	{Name: "checkpoint.rank_set_save_s", Unit: "s", Better: "lower"},
	{Name: "checkpoint.load_run_s", Unit: "s", Better: "lower"},
	{Name: "checkpoint.rank_set_bytes", Unit: "bytes", Better: "lower", Count: true},

	{Name: "balance.round_us", Unit: "us", Better: "lower"},
	{Name: "balance.rounds", Unit: "count", Better: "lower", Count: true},
	{Name: "balance.rounds_with_transfer", Unit: "count", Better: "higher", Count: true},

	{Name: "machine.triad_gbps", Unit: "GB/s", Better: "higher"},
	{Name: "machine.triad_array_mib", Unit: "MiB", Better: "higher", Count: true},
	{Name: "machine.llc_mib", Unit: "MiB", Better: "lower", Count: true},

	// The traced run's own median unit latency: against the untraced
	// runs' time_to_result_s it gives the tracing overhead.
	{Name: "trace.time_to_result_s", Unit: "s", Better: "lower"},
	{Name: "trace.spans", Unit: "count", Better: "lower"},
}

// layerOf is the layer a per-layer metric belongs to.
func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// value is one emitted metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects emitted values by name and refuses names the
// tables do not declare, so a typo cannot add a metric silently.
type metricSet struct {
	defs map[string]metricDef
	vals map[string]value
}

func newMetricSet(defs []metricDef) *metricSet {
	m := &metricSet{defs: make(map[string]metricDef, len(defs)), vals: map[string]value{}}
	for _, d := range defs {
		m.defs[d.Name] = d
	}
	return m
}

func (m *metricSet) set(name string, v float64) {
	d, ok := m.defs[name]
	if !ok {
		panic("bench: undeclared metric " + name)
	}
	m.vals[name] = value{Value: v, Unit: d.Unit}
}

// settle reports 0 for every unset metric of a layer the workload does
// not exercise, and returns the unset metrics of the layers it does: a
// probe that forgot one.
func (m *metricSet) settle(w workload) (missing []string) {
	for name := range m.defs {
		if _, ok := m.vals[name]; ok {
			continue
		}
		if w.exercises(layerOf(name)) {
			missing = append(missing, name)
		} else {
			m.set(name, 0)
		}
	}
	return missing
}

// runSeconds is BENCHMARK.json's run_seconds: how long the driver lets
// one run's timed section measure.
const runSeconds = 15

// benchmarkJSON renders BENCHMARK.json from the tables above and the
// workload list (`run.sh -benchmark-json`), so the file cannot drift
// from what a run emits; bench_test.go compares the two.
func benchmarkJSON() []byte {
	type named struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type bounded struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string  `json:"command"`
		Paths      []string  `json:"paths"`
		RunSeconds int       `json:"run_seconds"`
		Workloads  []named   `json:"workloads"`
		EndToEnd   []bounded `json:"end_to_end"`
		PerLayer   []layer   `json:"per_layer"`
	}{Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: runSeconds}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, named{w.Name, w.Why})
	}
	for _, d := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, bounded{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{d.Name, d.Unit, d.Better})
	}
	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err) // plain structs of strings and numbers
	}
	return append(buf, '\n')
}
