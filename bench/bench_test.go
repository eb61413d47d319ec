package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// TestSmokeSuite runs the whole benchmark — every workload untraced and
// traced, in-process, on toy lattices — and checks the shape of what it
// emits. It asserts no speed.
func TestSmokeSuite(t *testing.T) {
	out := t.TempDir()
	plan := fullPlan{Scale: smokeScale, Seed: 1, Seconds: 0.2, Reps: 2, Trace: true, OutDir: out, Machine: "test", runner: measure}
	res, err := plan.run()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		wr := res.Workloads[w.Name]
		if wr == nil {
			t.Fatalf("%s: no result", w.Name)
		}
		if wr.Failed != 0 || wr.Attempted == 0 {
			t.Errorf("%s: attempted %d failed %d: %v", w.Name, wr.Attempted, wr.Failed, wr.Failures)
		}
		for _, d := range endToEnd {
			s, ok := wr.EndToEnd[d.Name]
			if !ok || s.N != plan.Reps || s.Unit != d.Unit {
				t.Errorf("%s %s: missing or wrong shape: %+v", w.Name, d.Name, s)
				continue
			}
			for _, v := range s.Samples {
				if math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
					t.Errorf("%s %s: sample %v is not a positive finite number", w.Name, d.Name, v)
				}
			}
		}
		if len(wr.PerLayer) != len(perLayer) {
			t.Errorf("%s: %d per-layer metrics, want %d", w.Name, len(wr.PerLayer), len(perLayer))
		}
		for _, d := range perLayer {
			v, ok := wr.PerLayer[d.Name]
			if !ok || v.Unit != d.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
				t.Errorf("%s %s: missing, wrong unit or not finite: %+v", w.Name, d.Name, v)
			}
			if !w.exercises(layerOf(d.Name)) && v.Value != 0 {
				t.Errorf("%s %s = %v on a workload that does not exercise the layer", w.Name, d.Name, v.Value)
			}
		}
		if o := wr.TraceOverheadFrac; o == nil || math.IsNaN(*o) || math.IsInf(*o, 0) {
			t.Errorf("%s: trace_overhead_frac missing or not finite", w.Name)
		}
		for name, v := range wr.Counts {
			if v != 0 {
				t.Errorf("%s %s = %v, expected 0", w.Name, name, v)
			}
		}
		checkSpansNest(t, filepath.Join(out, "trace_"+w.Name+".json"))
	}
	if left, _ := filepath.Glob(filepath.Join(out, "tmp-*")); len(left) != 0 {
		t.Errorf("scratch directories left behind: %v", left)
	}
}

// checkSpansNest verifies the trace file: every span ended, every parent
// exists, and a child's interval lies inside its parent's.
func checkSpansNest(t *testing.T, path string) {
	t.Helper()
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Error(err)
		return
	}
	var tf traceFile
	if err := json.Unmarshal(buf, &tf); err != nil {
		t.Errorf("%s: %v", path, err)
		return
	}
	if len(tf.Spans) == 0 || tf.Dropped != 0 || len(tf.Self) == 0 {
		t.Errorf("%s: %d spans, %d dropped, %d self-time rows", path, len(tf.Spans), tf.Dropped, len(tf.Self))
	}
	for i, s := range tf.Spans {
		if s.ID != i+1 || s.End < s.Start {
			t.Errorf("%s: span %d %q malformed: %+v", path, i, s.Name, s)
		}
		if s.Parent == 0 {
			continue
		}
		if s.Parent >= s.ID {
			t.Errorf("%s: span %q has parent %d >= own id %d", path, s.Name, s.Parent, s.ID)
			continue
		}
		if p := tf.Spans[s.Parent-1]; s.Start < p.Start || s.End > p.End {
			t.Errorf("%s: span %q [%d,%d] escapes parent %q [%d,%d]", path, s.Name, s.Start, s.End, p.Name, p.Start, p.End)
		}
	}
	for _, st := range tf.Self {
		if st.SelfMS < 0 || st.SelfMS > st.TotalMS+1e-9 {
			t.Errorf("%s: self time of %q is %v of total %v", path, st.Name, st.SelfMS, st.TotalMS)
		}
	}
}

// TestBenchmarkJSON pins BENCHMARK.json to the binary's own tables, so
// the names a later issue quotes are the names a run emits.
func TestBenchmarkJSON(t *testing.T) {
	buf, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var got, want any
	if err := json.Unmarshal(buf, &got); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(benchmarkJSON(), &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json differs from `run.sh -benchmark-json`:\n%s", benchmarkJSON())
	}

	// The driver refuses a file outside these limits before a single run.
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	if len(workloads) < 2 || len(workloads) > 8 || len(endToEnd) > 16 || len(perLayer) > 128 || len(buf) > 64<<10 {
		t.Errorf("%d workloads, %d end-to-end, %d per-layer metrics, %d bytes", len(workloads), len(endToEnd), len(perLayer), len(buf))
	}
	for _, w := range workloads {
		check(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, d := range endToEnd {
		check(d.Name)
		if !unit.MatchString(d.Unit) || d.Bound <= 0 || d.Bound > 0.25 || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("end-to-end %+v out of the contract's limits", d)
		}
		setup = setup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in s, lower is better")
	}
	for _, d := range perLayer {
		check(d.Name)
		if !unit.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("per-layer %+v out of the contract's limits", d)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 2.25]
	if q1, q3 := quartiles([]float64{1, 2}); q1 != 0.75 || q3 != 2.25 {
		t.Errorf("two-sample quartiles = %v, %v; want 0.75, 2.25", q1, q3)
	}
}

func TestClassify(t *testing.T) {
	mk := func(better string, samples ...float64) summary {
		return summarize(metricDef{Name: "x", Unit: "s", Better: better, Bound: 0.05}, samples)
	}
	base := mk("lower", 1.00, 1.01, 0.99, 1.00, 1.005)
	for _, tc := range []struct {
		name string
		old  summary
		cur  summary
		want string
	}{
		{"same run", base, base, "same"},
		{"inside the noise", base, mk("lower", 1.003, 1.01, 0.995, 1.00, 1.008), "same"},
		{"slower", base, mk("lower", 1.10, 1.11, 1.09, 1.10, 1.105), "worse"},
		{"faster", base, mk("lower", 0.90, 0.91, 0.89, 0.90, 0.905), "better"},
		{"noisy new side", base, mk("lower", 0.8, 1.3, 1.0, 0.7, 1.2), "unresolved"},
		{"noisy old side", mk("lower", 0.8, 1.3, 1.0, 0.7, 1.2), base, "unresolved"},
		{"higher is better, fell", mk("higher", 10, 10.1, 9.9, 10, 10.05), mk("higher", 9, 9.1, 8.9, 9, 9.05), "worse"},
		{"higher is better, rose", mk("higher", 10, 10.1, 9.9, 10, 10.05), mk("higher", 11, 11.1, 10.9, 11, 11.05), "better"},
	} {
		if got := classify(tc.old, tc.cur); got != tc.want {
			t.Errorf("%s: classify = %q, want %q", tc.name, got, tc.want)
		}
	}
}

func TestJoinTraceArg(t *testing.T) {
	got := joinTraceArg([]string{"--workload", "w", "--trace", "1", "--seed", "3", "-trace"})
	want := []string{"--workload", "w", "-trace=1", "--seed", "3", "-trace"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("joinTraceArg = %v, want %v", got, want)
	}
}
