// Command bench is the repository's one benchmark: five named workloads
// timed from POST /jobs to the persisted result, per-layer attribution
// measured from outside each package, and regression bounds fixed in
// BENCHMARK.json. See README.md in this directory.
//
// Run it through run.sh (which builds it inside the checkout):
//
//	bash bench/run.sh                         full run: 5 repetitions of all workloads
//	bash bench/run.sh -trace                  ... plus one traced run per workload
//	bash bench/run.sh -workload W -seed N -seconds S -trace 0|1
//	                                          one workload run (what the driver calls)
//	bash bench/run.sh -compare old.json new.json
//	bash bench/run.sh -repeat-check           two full sets back to back, must agree
//	bash bench/run.sh -smoke                  the whole suite on toy lattices, < 10 s
//	bash bench/run.sh -record-golden          recompute golden.json
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// joinTraceArg lets -trace be both a bare switch (`-trace`) and the
// driver's two-argument form (`--trace 0`, `--trace 1`), which the flag
// package would otherwise read as a switch followed by a positional.
func joinTraceArg(args []string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		if (args[i] == "-trace" || args[i] == "--trace") && i+1 < len(args) && (args[i+1] == "0" || args[i+1] == "1") {
			out = append(out, "-trace="+args[i+1])
			i++
			continue
		}
		out = append(out, args[i])
	}
	return out
}

func run(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		workloadName = fs.String("workload", "", "run this one workload and print the contract line last")
		seed         = fs.Int64("seed", 1, "the only randomness: the job order in small_jobs")
		seconds      = fs.Float64("seconds", runSeconds, "how long a run's timed section measures")
		trace        = fs.Bool("trace", false, "traced run: per-layer metrics and spans instead of end-to-end metrics")
		smoke        = fs.Bool("smoke", false, "the whole suite on toy lattices, in-process: -seconds 0.2 -reps 2")
		outDir       = fs.String("out", filepath.Join("bench", "out"), "output directory (also holds scratch files during a run)")
		reps         = fs.Int("reps", 5, "repetitions per workload in a full run, interleaved round-robin")
		compare      = fs.Bool("compare", false, "compare two result files: -compare old.json new.json")
		repeatCheck  = fs.Bool("repeat-check", false, "run two full sets back to back and fail if they disagree beyond the bounds")
		recordGold   = fs.Bool("record-golden", false, "recompute golden.json next to the sources")
		machine      = fs.String("machine", "", "machine name recorded in result files (default: hostname)")
		printSpec    = fs.Bool("benchmark-json", false, "print BENCHMARK.json as the metric and workload tables define it")
	)
	if err := fs.Parse(joinTraceArg(args)); err != nil {
		return err
	}
	sc := fullScale
	if *smoke {
		sc, *seconds, *reps = smokeScale, 0.2, 2
	}
	if *machine == "" {
		*machine, _ = os.Hostname()
	}

	switch {
	case *printSpec:
		_, err := os.Stdout.Write(benchmarkJSON())
		return err
	case *compare:
		if fs.NArg() != 2 {
			return fmt.Errorf("-compare wants two result files")
		}
		return compareFiles(os.Stdout, fs.Arg(0), fs.Arg(1))
	case *recordGold:
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			return err
		}
		return recordGolden(filepath.Join(filepath.Dir(*outDir), "golden.json"), *outDir)
	case *workloadName != "":
		w, err := workloadByName(*workloadName)
		if err != nil {
			return err
		}
		return runOne(runConfig{Workload: w, Scale: sc, Seed: *seed, Seconds: *seconds, Trace: *trace, OutDir: *outDir})
	}

	plan := fullPlan{Scale: sc, Seed: *seed, Seconds: *seconds, Reps: *reps, Trace: *trace,
		OutDir: *outDir, Machine: *machine, runner: spawn}
	if *smoke {
		plan.runner = measure // toy sizes: process isolation buys nothing
	}
	if *repeatCheck {
		return repeatChecked(plan)
	}
	res, err := plan.run()
	if err != nil {
		return err
	}
	res.print(os.Stdout)
	if err := writeJSON(filepath.Join(*outDir, "result.json"), res); err != nil {
		return err
	}
	if !res.correct() {
		return fmt.Errorf("output checks failed")
	}
	return nil
}

// detailPrefix marks the line a workload run prints before the contract
// line for its parent: failure reasons and expected-zero counters.
const detailPrefix = "#detail "

type runDetail struct {
	Failures []string           `json:"failures,omitempty"`
	Counts   map[string]float64 `json:"counts,omitempty"`
}

// runOne is the driver-facing mode: every metric by name with its unit,
// then one JSON object as the last line of standard output.
func runOne(cfg runConfig) error {
	res, err := measure(cfg)
	if err != nil {
		return err
	}
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		v := res.Metrics[name]
		fmt.Printf("%-32s %14.6g %s\n", name, v.Value, v.Unit)
	}
	for _, why := range res.failures {
		fmt.Println("FAILED", why)
	}
	detail, _ := json.Marshal(runDetail{Failures: res.failures, Counts: res.counts})
	fmt.Printf("%s%s\n", detailPrefix, detail)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("%d of %d operations failed", res.Failed, res.Attempted)
	}
	return nil
}

// spawn runs one workload at full scale in a child process of this
// binary, so every run starts from a fresh heap and peak_rss_mb is the
// run's own.
func spawn(cfg runConfig) (runResult, error) {
	self, err := os.Executable()
	if err != nil {
		return runResult{}, err
	}
	traceArg := "-trace=0"
	if cfg.Trace {
		traceArg = "-trace=1"
	}
	cmd := exec.Command(self, "-workload", cfg.Workload.Name,
		"-seed", strconv.FormatInt(cfg.Seed, 10), "-seconds", strconv.FormatFloat(cfg.Seconds, 'g', -1, 64),
		traceArg, "-out", cfg.OutDir)
	cmd.Stderr = os.Stderr
	out, runErr := cmd.Output() // waits for the child to end
	var (
		res    runResult
		detail runDetail
		last   string
	)
	scan := bufio.NewScanner(bytes.NewReader(out))
	scan.Buffer(nil, 1<<20)
	for scan.Scan() {
		line := scan.Text()
		if rest, ok := strings.CutPrefix(line, detailPrefix); ok {
			_ = json.Unmarshal([]byte(rest), &detail) // best effort: only explains a failure
		} else if strings.TrimSpace(line) != "" {
			last = line
		}
	}
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return res, fmt.Errorf("%s: no result line (%v, child: %v)", cfg.Workload.Name, err, runErr)
	}
	res.failures, res.counts = detail.Failures, detail.Counts
	return res, nil
}

// fullPlan is a full run: Reps repetitions of every workload,
// interleaved round-robin (A B C D E, A B C D E, ...) so that drift
// hits all workloads equally, plus one traced run each with Trace.
type fullPlan struct {
	Scale   scale
	Seed    int64
	Seconds float64
	Reps    int
	Trace   bool
	OutDir  string
	Machine string
	runner  func(runConfig) (runResult, error)
	// noisy, when set, replaces the set's own judgement of the machine.
	// -repeat-check judges once, before its first set: the second starts
	// under the load average the first left behind.
	noisy *bool
}

type workloadResult struct {
	Why       string             `json:"why"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Failures  []string           `json:"failures,omitempty"`
	EndToEnd  map[string]summary `json:"end_to_end"`
	PerLayer  map[string]value   `json:"per_layer,omitempty"`
	// TraceOverheadFrac is the traced run's median unit latency over the
	// median time_to_result_s of the untraced repetitions, minus 1.
	TraceOverheadFrac *float64 `json:"trace_overhead_frac,omitempty"`
	// Counts are expected-zero counters of the traced run (503 refusals,
	// transport retries, allocations per step); a non-zero one is a
	// failed check, not a metric.
	Counts map[string]float64 `json:"counts,omitempty"`
}

type fullResult struct {
	Schema    string                     `json:"schema"`
	Machine   string                     `json:"machine"`
	Date      string                     `json:"date"`
	Env       environment                `json:"env"`
	Noisy     bool                       `json:"noisy"`
	Scale     string                     `json:"scale"`
	Seed      int64                      `json:"seed"`
	Seconds   float64                    `json:"seconds"`
	Reps      int                        `json:"reps"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

func (p fullPlan) run() (*fullResult, error) {
	env := captureEnv(filepath.Dir(p.OutDir))
	res := &fullResult{Schema: "microslip-bench/1", Machine: p.Machine, Date: time.Now().Format("2006-01-02"),
		Env: env, Noisy: env.noisy(), Scale: p.Scale.Name, Seed: p.Seed, Seconds: p.Seconds, Reps: p.Reps,
		Workloads: map[string]*workloadResult{}}
	if p.noisy != nil {
		res.Noisy = *p.noisy
	}
	if res.Noisy {
		fmt.Fprintf(os.Stderr, "WARNING: the machine was busy at the start (1-min load average %.2f, nproc %d); run marked noisy\n", env.LoadStart, env.NProc)
	}
	samples := map[string]map[string][]float64{}
	for _, w := range workloads {
		res.Workloads[w.Name] = &workloadResult{Why: w.Why, EndToEnd: map[string]summary{}}
		samples[w.Name] = map[string][]float64{}
	}
	one := func(w workload, seed int64, trace bool) (runResult, error) {
		fmt.Fprintf(os.Stderr, "run %-12s seed=%d trace=%v\n", w.Name, seed, trace)
		r, err := p.runner(runConfig{Workload: w, Scale: p.Scale, Seed: seed, Seconds: p.Seconds, Trace: trace, OutDir: p.OutDir})
		if err != nil {
			return r, fmt.Errorf("%s: %w", w.Name, err)
		}
		wr := res.Workloads[w.Name]
		wr.Attempted += r.Attempted
		wr.Failed += r.Failed
		wr.Failures = append(wr.Failures, r.failures...)
		return r, nil
	}
	for rep := 0; rep < p.Reps; rep++ {
		for _, w := range workloads {
			r, err := one(w, p.Seed+int64(rep), false)
			if err != nil {
				return nil, err
			}
			for name, v := range r.Metrics {
				samples[w.Name][name] = append(samples[w.Name][name], v.Value)
			}
		}
	}
	for _, w := range workloads {
		for _, d := range endToEnd {
			res.Workloads[w.Name].EndToEnd[d.Name] = summarize(d, samples[w.Name][d.Name])
		}
	}
	if p.Trace {
		for _, w := range workloads {
			r, err := one(w, p.Seed, true)
			if err != nil {
				return nil, err
			}
			wr := res.Workloads[w.Name]
			wr.PerLayer, wr.Counts = r.Metrics, r.counts
			over := r.Metrics["trace.time_to_result_s"].Value/wr.EndToEnd["time_to_result_s"].Median - 1
			wr.TraceOverheadFrac = &over
		}
	}
	res.Env.LoadEnd = loadAvg1()
	return res, nil
}

func (r *fullResult) correct() bool {
	for _, w := range r.Workloads {
		if w.Failed > 0 {
			return false
		}
	}
	return true
}

// print writes every metric by name with its unit.
func (r *fullResult) print(out *os.File) {
	fmt.Fprintf(out, "machine %s: %s, nproc %d, GOMAXPROCS %v, %s, commit %s dirty=%v, load %.2f -> %.2f, noisy=%v\n",
		r.Machine, r.Env.CPUModel, r.Env.NProc, r.Env.GOMAXPROCS, r.Env.GoVersion, r.Env.GitCommit, r.Env.GitDirty,
		r.Env.LoadStart, r.Env.LoadEnd, r.Noisy)
	for _, w := range workloads {
		wr := r.Workloads[w.Name]
		fmt.Fprintf(out, "\n%s  (%d reps x %gs, attempted %d, failed %d)\n", w.Name, r.Reps, r.Seconds, wr.Attempted, wr.Failed)
		for _, d := range endToEnd {
			s := wr.EndToEnd[d.Name]
			fmt.Fprintf(out, "  %-28s %-34s %-6s min %-10.5g n=%d spread %.1f%% (bound %.0f%%)\n",
				d.Name, fmtQ(s), s.Unit, s.Min, s.N, 100*s.spread(), 100*d.Bound)
		}
		for _, d := range perLayer {
			if v, ok := wr.PerLayer[d.Name]; ok {
				fmt.Fprintf(out, "  %-28s %-14.6g %s\n", d.Name, v.Value, v.Unit)
			}
		}
		if wr.TraceOverheadFrac != nil {
			fmt.Fprintf(out, "  %-28s %-14.6g frac (traced run over the untraced repetitions)\n", "trace_overhead_frac", *wr.TraceOverheadFrac)
		}
		for name, v := range wr.Counts {
			fmt.Fprintf(out, "  %-28s %-14g (expected 0)\n", name, v)
		}
		for _, why := range wr.Failures {
			fmt.Fprintf(out, "  FAILED %s\n", why)
		}
	}
}

func writeJSON(path string, v any) error {
	buf, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

func readResult(path string) (*fullResult, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r fullResult
	if err := json.Unmarshal(buf, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if r.Schema != "microslip-bench/1" {
		return nil, fmt.Errorf("%s: schema %q, want microslip-bench/1", path, r.Schema)
	}
	return &r, nil
}

// compareFiles prints, per (workload, end-to-end metric), both medians
// with quartiles, the ratio with its base, and the verdict of classify.
func compareFiles(out *os.File, oldPath, newPath string) error {
	old, err := readResult(oldPath)
	if err != nil {
		return err
	}
	cur, err := readResult(newPath)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "old: %s  %s %s commit %s\nnew: %s  %s %s commit %s\n", oldPath, old.Machine, old.Date, old.Env.GitCommit,
		newPath, cur.Machine, cur.Date, cur.Env.GitCommit)
	if old.Noisy || cur.Noisy {
		fmt.Fprintln(out, "WARNING: a side was measured on a busy machine (noisy)")
	}
	fmt.Fprintf(out, "%-12s %-20s %-32s %-32s %-26s %s\n", "workload", "metric", "old median [q1, q3]", "new median [q1, q3]", "new/old (base)", "verdict")
	for _, w := range workloads {
		ow, nw := old.Workloads[w.Name], cur.Workloads[w.Name]
		if ow == nil || nw == nil {
			fmt.Fprintf(out, "%-12s missing on one side\n", w.Name)
			continue
		}
		for _, d := range endToEnd {
			o, n := ow.EndToEnd[d.Name], nw.EndToEnd[d.Name]
			o.Bound = d.Bound // the bound in force is this binary's
			ratio := fmt.Sprintf("%.4fx of %.5g %s", n.Median/o.Median, o.Median, d.Unit)
			fmt.Fprintf(out, "%-12s %-20s %-32s %-32s %-26s %s\n", w.Name, d.Name, fmtQ(o), fmtQ(n), ratio, classify(o, n))
		}
	}
	return nil
}

// repeatReport is what -repeat-check writes: both sets and where they
// disagreed.
type repeatReport struct {
	Schema    string             `json:"schema"`
	Machine   string             `json:"machine"`
	Date      string             `json:"date"`
	Agree     bool               `json:"agree"`
	Disagree  []string           `json:"disagreements,omitempty"`
	Sets      []*fullResult      `json:"sets"`
	MaxDeltas map[string]float64 `json:"max_median_delta_by_metric"`
}

// repeatChecked runs two full traced sets back to back and fails if any
// end-to-end median differs between them by more than the metric's
// bound, or any count metric differs at all.
func repeatChecked(p fullPlan) error {
	p.Trace = true
	noisy := captureEnv(filepath.Dir(p.OutDir)).noisy()
	p.noisy = &noisy
	rep := repeatReport{Schema: "microslip-bench-repeat/1", Machine: p.Machine, Date: time.Now().Format("2006-01-02"),
		MaxDeltas: map[string]float64{}}
	for i := 0; i < 2; i++ {
		set, err := p.run()
		if err != nil {
			return err
		}
		set.print(os.Stdout)
		if !set.correct() {
			rep.Disagree = append(rep.Disagree, fmt.Sprintf("set %d failed its output checks", i))
		}
		rep.Sets = append(rep.Sets, set)
	}
	a, b := rep.Sets[0], rep.Sets[1]
	for _, w := range workloads {
		for _, d := range endToEnd {
			sa, sb := a.Workloads[w.Name].EndToEnd[d.Name], b.Workloads[w.Name].EndToEnd[d.Name]
			delta := math.Abs(sb.Median-sa.Median) / sa.Median
			rep.MaxDeltas[d.Name] = math.Max(rep.MaxDeltas[d.Name], delta)
			if delta > d.Bound {
				rep.Disagree = append(rep.Disagree, fmt.Sprintf("%s %s: medians %.6g vs %.6g differ by %.1f%% > bound %.0f%%",
					w.Name, d.Name, sa.Median, sb.Median, 100*delta, 100*d.Bound))
			}
		}
		for _, d := range perLayer {
			va, vb := a.Workloads[w.Name].PerLayer[d.Name], b.Workloads[w.Name].PerLayer[d.Name]
			if d.Count && va.Value != vb.Value {
				rep.Disagree = append(rep.Disagree, fmt.Sprintf("%s %s: count %v vs %v", w.Name, d.Name, va.Value, vb.Value))
			}
		}
	}
	rep.Agree = len(rep.Disagree) == 0
	path := filepath.Join(p.OutDir, "baseline_"+rep.Date+".json")
	if err := writeJSON(path, rep); err != nil {
		return err
	}
	fmt.Printf("\nrepeat-check: wrote %s\n", path)
	for name, d := range rep.MaxDeltas {
		fmt.Printf("  %-22s largest median difference between the sets %.2f%%\n", name, 100*d)
	}
	if !rep.Agree {
		for _, why := range rep.Disagree {
			fmt.Println("  DISAGREE", why)
		}
		return fmt.Errorf("the two sets disagree")
	}
	fmt.Println("  the two sets agree within every bound; every count metric is identical")
	return nil
}
