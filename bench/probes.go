package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"microslip/internal/balance"
	"microslip/internal/checkpoint"
	"microslip/internal/comm"
	"microslip/internal/field"
	"microslip/internal/lattice"
	"microslip/internal/lbm"
	"microslip/internal/parlbm"
	"microslip/internal/serve"
)

// probes takes the per-layer metrics of a traced run. Every layer is
// measured from outside: from the public outputs the workload's own
// units left behind (JobStatus.Stages, parlbm.Result), from a replay of
// the workload's job with the options slipd builds where slipd keeps
// those outputs to itself, and by timing calls into the layer's public
// functions on the workload's lattice and solver settings. Each call
// sits in a span. Only the layers the workload exercises are measured.
type probes struct {
	w      workload
	sc     scale
	pp     probeParams
	tr     *tracer
	m      *metricSet
	tmp    string
	counts map[string]float64 // expected-zero counters, reported beside the metrics

	mu    sync.Mutex // the comm probes fail from two goroutines
	fails []string
}

// timeIt returns f's wall time in seconds, recorded as a span.
func (pr *probes) timeIt(parent int, name string, f func(id int)) float64 {
	t0 := time.Now()
	pr.tr.do(parent, name, "probe", f)
	return time.Since(t0).Seconds()
}

func (pr *probes) failf(format string, args ...any) {
	pr.mu.Lock()
	defer pr.mu.Unlock()
	pr.fails = append(pr.fails, fmt.Sprintf(format, args...))
}

// run measures the layers of pr.w; units are the verified units of the
// traced timed section.
func (pr *probes) run(units []unit, seed int64) {
	w := pr.w
	if w.exercises("serve") {
		serveMetrics(pr.m, units)
	}
	root := pr.tr.begin(0, "probes", "probe")
	defer pr.tr.end(root)
	state := pr.lbmProbe(root) // every workload runs the lbm kernels
	pr.kernelProbe(root)
	if w.exercises("refine") {
		pr.refineProbe(root)
	}
	if w.exercises("parlbm") {
		pr.parlbmMetrics(pr.parRuns(root, units, seed))
	}
	if w.exercises("comm") {
		pr.commProbe(root)
	}
	if w.exercises("checkpoint") {
		pr.checkpointProbe(root, state)
	}
	if w.exercises("balance") {
		pr.balanceProbe(root, units[0].Remap)
	}
	pr.machineProbe(root)
}

// advance steps a solver n steps with one RunSupervised call, as slipd
// does for any job shorter than its 200-step stream interval (every
// probe and every job of this benchmark is).
func (pr *probes) advance(parent int, run func(n int) error, n int) float64 {
	return pr.timeIt(parent, "lbm.RunSupervised", func(int) {
		if err := run(n); err != nil {
			pr.failf("RunSupervised: %v", err)
		}
	})
}

// lbmProbe builds the solver exactly as slipd's schedule stage does and
// advances it as the compute stage does. It returns the advanced state
// for the checkpoint probe.
func (pr *probes) lbmProbe(root int) *lbm.State {
	id := pr.tr.begin(root, "lbm", "probe")
	defer pr.tr.end(id)
	pp, n := pr.pp, pr.sc.ProbeSteps
	cells := float64(pp.NX * pp.NY * pp.NZ)

	var solver lbm.Solver
	pr.m.set("lbm.new_solver_s", pr.timeIt(id, "lbm.NewSolver", func(int) {
		var err error
		if solver, err = lbm.NewSolver(pp.params()); err != nil {
			panic(err) // the workload's own parameters: a bug, not an input
		}
		solver.SetWorkers(pp.Workers)
	}))
	run := func(k int) error { _, err := solver.RunSupervised(k, nil); return err }
	pr.advance(id, run, 2) // first-touch and pool start-up are not steady state

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	adv := pr.advance(id, run, n)
	runtime.ReadMemStats(&after)
	nsPerCell := adv * 1e9 / (cells * float64(n))
	pr.m.set("lbm.advance_ns_per_cell", nsPerCell)
	// The probe's own closure and the runtime allocate a handful per
	// call; a step that allocates does so per plane. Fewer than 8 is none.
	allocs := (after.Mallocs - before.Mallocs) / uint64(n)
	if allocs < 8 {
		allocs = 0
	}
	pr.counts["lbm.allocs_per_step"] = float64(allocs)
	if allocs != 0 {
		pr.failf("lbm step allocates: %d mallocs per step", allocs)
	}

	// Computed, not measured: populations read + written per site update
	// over both components. The fused path reads and writes each
	// population once; the three-pass path reads them in densities,
	// collide and stream and writes them in collide and stream.
	passes := 5
	if pp.Fused {
		passes = 2
	}
	bytesPerCell := float64(passes * lattice.Q19 * 2 * 8)
	pr.m.set("lbm.bytes_per_cell_computed", bytesPerCell)
	pr.m.set("lbm.computed_gbps", bytesPerCell/nsPerCell)

	// The one probe that needs two CPUs whatever the workload runs with.
	procs := runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	solver.SetWorkers(1)
	w1 := pr.advance(id, run, n)
	solver.SetWorkers(2)
	pr.advance(id, run, 1) // reshard
	w2 := pr.advance(id, run, n)
	runtime.GOMAXPROCS(procs)
	pr.m.set("lbm.par_speedup_w2", w1/w2)

	var st *lbm.State
	pr.tr.do(id, "lbm.State", "probe", func(int) { st = solver.State() })
	return st
}

// kernelProbe times the three kernel passes over every plane of the
// lattice through the public plane kernel, as parlbm calls them.
func (pr *probes) kernelProbe(root int) {
	id := pr.tr.begin(root, "lbm.kernel", "probe")
	defer pr.tr.end(id)
	p := pr.pp.params()
	k := lbm.NewKernel(p)
	nc, nx := p.NComp(), p.NX
	alloc := func(size int) [][][]float64 { // [x][c][]
		a := make([][][]float64, nx)
		for x := range a {
			a[x] = make([][]float64, nc)
			for c := range a[x] {
				a[x][c] = make([]float64, size)
			}
		}
		return a
	}
	f, post, n := alloc(k.PlaneLen()), alloc(k.PlaneLen()), alloc(k.PlaneCells())
	for x := 0; x < nx; x++ {
		for c := 0; c < nc; c++ {
			k.InitEquilibrium(f[x][c], p.InitDensityAt(c, x))
		}
	}
	sc := k.NewScratch()
	cells := float64(nx * k.PlaneCells())
	pass := func(name string, body func(x, l, r int)) float64 {
		best := 0.0
		for rep := 0; rep < 3; rep++ { // min of 3: the first touches memory
			t := pr.timeIt(id, name, func(int) {
				for x := 0; x < nx; x++ {
					body(x, (x-1+nx)%nx, (x+1)%nx)
				}
			})
			if rep == 0 || t < best {
				best = t
			}
		}
		return best * 1e9 / cells
	}
	pr.m.set("lbm.densities_ns_per_cell", pass("lbm.Densities", func(x, _, _ int) { k.Densities(f[x], n[x]) }))
	pr.m.set("lbm.collide_ns_per_cell", pass("lbm.CollideScratch", func(x, l, r int) { k.CollideScratch(sc, n[l], n[x], n[r], f[x], post[x]) }))
	pr.m.set("lbm.stream_ns_per_cell", pass("lbm.Stream", func(x, l, r int) { k.Stream(post[l], post[x], post[r], f[x]) }))
}

// refineProbe measures the two-level refined solver and, from outside,
// what coupling the levels costs: the same three blocks advanced as
// stand-alone uniform solvers do the kernels' share of a composite step;
// the rest is transfer, renormalization and level synchronization.
func (pr *probes) refineProbe(root int) {
	id := pr.tr.begin(root, "refine", "probe")
	defer pr.tr.end(id)
	pp, n := pr.pp, pr.sc.ProbeSteps
	spec := lbm.RefineSpec{Levels: 2, WallLayers: pr.sc.WallLayers}
	p := pp.params()
	workers := pp.Workers

	var r lbm.RefinedSolver
	pr.timeIt(id, "lbm.NewRefined", func(int) {
		var err error
		if r, err = lbm.NewRefined(p, spec); err != nil {
			panic(err)
		}
		r.SetWorkers(workers)
	})
	run := func(k int) error { _, err := r.RunSupervised(k, nil); return err }
	pr.advance(id, run, 2)
	composite := pr.advance(id, run, n) / float64(n)
	pr.m.set("refine.composite_step_ms", composite*1e3)

	refined, fineEq := r.SiteUpdatesPerStep()
	pr.m.set("refine.update_ratio", fineEq/refined)
	if cr, cf, err := spec.SiteUpdatesPerStep(p); err != nil || cf/cr != fineEq/refined {
		pr.failf("refine update ratio %v differs from closed form %v (err %v)", fineEq/refined, cf/cr, err)
	}
	pr.m.set("refine.mass_drift_rel", r.MassDrift())

	ml, err := field.NewMultiLevel(pp.NX, pp.NY, pp.NZ, pr.sc.WallLayers)
	if err != nil {
		panic(err)
	}
	cnx, cny, cnz := ml.CoarseDims()
	standalone := 0.0
	for _, lv := range []struct{ nx, ny, nz, substeps int }{
		{pp.NX, ml.FineNY(), pp.NZ, 2}, {pp.NX, ml.FineNY(), pp.NZ, 2}, {cnx, cny, cnz, 1},
	} {
		q := lbm.WaterAir(lv.nx, lv.ny, lv.nz)
		q.Fused = pp.Fused
		s, err := lbm.NewSolver(q)
		if err != nil {
			panic(err)
		}
		s.SetWorkers(workers)
		lrun := func(k int) error { _, err := s.RunSupervised(k, nil); return err }
		pr.advance(id, lrun, 2)
		standalone += pr.advance(id, lrun, n*lv.substeps) / float64(n)
	}
	pr.m.set("refine.coupling_frac", 1-standalone/composite)
}

// parRuns returns the RunParallel calls the parlbm.* metrics describe:
// dist_remap's own units or, because slipd keeps a job's parlbm.Result
// to itself, one replay of the workload's distributed job.
func (pr *probes) parRuns(root int, units []unit, seed int64) []parRun {
	if pr.w.specs == nil {
		runs := make([]parRun, len(units))
		for i, u := range units {
			runs[i] = u.Remap.parRun
		}
		return runs
	}
	for _, sp := range pr.w.specs(pr.sc, seed) {
		if sp.Kind == serve.KindDistributed {
			return pr.replayDistributed(root, sp)
		}
	}
	panic("bench: " + pr.w.Name + " exercises parlbm but submits no distributed job")
}

// replayDistributed runs spec as slipd's runDistributed does: default
// parlbm.Options, no policy, and coordinated checkpoints every
// CheckpointInterval phases (a quarter of the run when the spec names
// none) with two sets kept.
func (pr *probes) replayDistributed(root int, sp serve.JobSpec) []parRun {
	dir, err := os.MkdirTemp(pr.tmp, "parlbm-")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	interval := sp.CheckpointInterval
	if interval <= 0 {
		interval = max(sp.Steps/4, 1)
	}
	opts := parlbm.Options{Phases: sp.Steps, Checkpoint: &parlbm.CheckpointSpec{Dir: dir, Interval: interval, Keep: 2}}
	var results []*parlbm.Result
	wall := pr.timeIt(root, "parlbm.RunParallel", func(int) {
		_, results, err = parlbm.RunParallel(lbm.WaterAir(sp.NX, sp.NY, sp.NZ), sp.Ranks, opts)
	})
	if err != nil {
		pr.failf("replay of %s: %v", specKey(sp), err)
		return nil
	}
	return []parRun{{Results: results, Wall: wall, Phases: sp.Steps}}
}

// parCounts is the wire volume of one RunParallel call, summed over
// ranks. It repeats exactly between runs of one commit.
type parCounts struct {
	haloBytes, haloMsgs, migBytes, ctlMsgs, gatherBytes, retries int64
	migrated                                                     int
}

// parlbmMetrics reads the time split from each run's Result.Breakdown
// (max over ranks, then the median over runs) and the wire volume from
// Result.Comm.Bytes.
func (pr *probes) parlbmMetrics(runs []parRun) {
	if len(runs) == 0 {
		return // the replay failed and said so
	}
	var (
		comp, cm, remap, ckpt, imbalance, setupGather []float64
		first                                         parCounts
	)
	for i, run := range runs {
		var (
			c                                     parCounts
			rComp, rCm, rRemap, rCkpt, maxT, sumT float64
		)
		for _, r := range run.Results {
			b := r.Breakdown
			rComp, rCm = max(rComp, b.Computation), max(rCm, b.Communication)
			rRemap, rCkpt = max(rRemap, b.Remapping), max(rCkpt, b.Checkpoint)
			maxT, sumT = max(maxT, b.Total()), sumT+b.Total()
			h := r.Comm.Bytes.Halo()
			c.haloBytes += h.SentBytes
			c.haloMsgs += h.SentMsgs
			c.migBytes += r.Comm.Bytes.Migration.SentBytes
			c.ctlMsgs += r.Comm.Bytes.Control.SentMsgs
			c.gatherBytes += r.Comm.Bytes.Gather.SentBytes
			c.migrated += r.PlanesSent
			c.retries += r.Comm.Retries
		}
		comp, cm = append(comp, rComp), append(cm, rCm)
		remap, ckpt = append(remap, rRemap), append(ckpt, rCkpt)
		imbalance = append(imbalance, maxT/(sumT/float64(len(run.Results))))
		setupGather = append(setupGather, run.Wall-maxT)
		if i == 0 {
			first = c
		} else if c != first {
			pr.failf("parlbm counts differ between units: %+v vs %+v", first, c)
		}
	}
	phases := float64(runs[0].Phases)
	pr.m.set("parlbm.compute_s", median(comp))
	pr.m.set("parlbm.comm_s", median(cm))
	pr.m.set("parlbm.remap_s", median(remap))
	pr.m.set("parlbm.checkpoint_s", median(ckpt))
	pr.m.set("parlbm.imbalance", median(imbalance))
	pr.m.set("parlbm.setup_gather_s", median(setupGather))
	pr.m.set("parlbm.halo_bytes_per_phase", float64(first.haloBytes)/phases)
	pr.m.set("parlbm.halo_msgs_per_phase", float64(first.haloMsgs)/phases)
	pr.m.set("parlbm.migration_bytes", float64(first.migBytes))
	pr.m.set("parlbm.planes_migrated", float64(first.migrated))
	pr.m.set("parlbm.control_msgs", float64(first.ctlMsgs))
	pr.m.set("parlbm.gather_bytes", float64(first.gatherBytes))
	pr.counts["parlbm.retries"] = float64(first.retries)
	if first.retries != 0 {
		pr.failf("parlbm: %d transport retries", first.retries)
	}
}

// pairOp runs op(rank, endpoint) n times on both ranks of a 2-rank
// group concurrently and returns microseconds per call.
func (pr *probes) pairOp(parent int, name string, eps []comm.Comm, n int, op func(c comm.Comm) error) float64 {
	t := pr.timeIt(parent, name, func(id int) {
		var wg sync.WaitGroup
		for _, c := range eps {
			wg.Add(1)
			go func(c comm.Comm) {
				defer wg.Done()
				pr.tr.do(id, fmt.Sprintf("%s[rank %d]", name, c.Rank()), "probe", func(int) {
					for i := 0; i < n; i++ {
						if err := op(c); err != nil {
							pr.failf("%s rank %d: %v", name, c.Rank(), err)
							return
						}
					}
				})
			}(c)
		}
		wg.Wait()
	})
	return t * 1e6 / float64(n)
}

// commProbe exchanges the workload's real slim distribution halo (the 5
// crossing populations of both components for one face) between two
// ranks, and times the two collectives the runner uses.
func (pr *probes) commProbe(root int) {
	id := pr.tr.begin(root, "comm", "probe")
	defer pr.tr.end(id)
	n := pr.sc.ProbeCommOps
	payload := make([]float64, pr.pp.NY*pr.pp.NZ*lattice.CrossQ*2)
	exchange := func(c comm.Comm) error {
		_, err := c.SendRecv(1-c.Rank(), payload, 1-c.Rank(), 9)
		return err
	}
	fabric := comm.NewFabric(2)
	defer fabric.Close()
	eps := fabric.Endpoints()
	pr.m.set("comm.fabric_exchange_us", pr.pairOp(id, "comm.SendRecv/fabric", eps, n, exchange))
	pr.m.set("comm.barrier_us", pr.pairOp(id, "comm.Barrier", eps, n, func(c comm.Comm) error { return c.Barrier() }))
	own := []float64{0, 1} // the (start, count) pair of the checkpoint commit
	pr.m.set("comm.allgather_us", pr.pairOp(id, "comm.AllGather", eps, n, func(c comm.Comm) error {
		_, err := c.AllGather(own)
		return err
	}))

	tcp, shutdown, err := comm.NewTCPGroup(2)
	if err != nil {
		pr.failf("NewTCPGroup: %v", err)
		return
	}
	defer shutdown()
	pr.m.set("comm.tcp_exchange_us", pr.pairOp(id, "comm.SendRecv/tcp", tcp, n, exchange))
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) float64 {
	var total int64
	filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			total += info.Size()
		}
		return nil
	})
	return float64(total)
}

// checkpointProbe saves and loads the workload-sized state through the
// container format (what an interrupted sequential job does), and a
// 2-rank coordinated set (what a distributed job does every interval).
func (pr *probes) checkpointProbe(root int, st *lbm.State) {
	id := pr.tr.begin(root, "checkpoint", "probe")
	defer pr.tr.end(id)
	dir, err := os.MkdirTemp(pr.tmp, "ckpt-")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	must := func(what string, err error) {
		if err != nil {
			pr.failf("%s: %v", what, err)
		}
	}

	path := filepath.Join(dir, "state.ckpt")
	pr.m.set("checkpoint.save_state_s", pr.timeIt(id, "checkpoint.SaveFile", func(int) { must("SaveFile", checkpoint.SaveFile(path, st)) }))
	pr.m.set("checkpoint.state_bytes", dirBytes(dir))
	pr.m.set("checkpoint.load_state_s", pr.timeIt(id, "checkpoint.LoadFile", func(int) {
		_, err := checkpoint.LoadFile(path)
		must("LoadFile", err)
	}))
	os.Remove(path)

	// The same lattice at float32: the compact payload halves the file.
	p32 := pr.pp.params()
	p32.Precision = lbm.F32
	s32, err := lbm.NewSolver(p32)
	if err != nil {
		panic(err)
	}
	must("SaveFile f32", checkpoint.SaveFile(path, s32.State()))
	pr.m.set("checkpoint.state_bytes_f32", dirBytes(dir))
	os.Remove(path)

	// A 2-rank coordinated set of the same state: SaveRank x2 + Commit.
	nc, nx := len(st.F), len(st.F[0])
	k := lbm.NewKernel(st.Params)
	ranks := make([]*checkpoint.RankState, 2)
	manifest := &checkpoint.Manifest{Phase: st.Step, NX: nx, NComp: nc, PlaneSize: k.PlaneLen(), Params: st.Params}
	for r := range ranks {
		start, end := r*nx/2, (r+1)*nx/2
		rs := &checkpoint.RankState{Phase: st.Step, Rank: r, Start: start,
			Planes: make([][][]float64, nc), Density: make([][][]float64, nc)}
		for c := 0; c < nc; c++ {
			rs.Planes[c] = st.F[c][start:end]
			rs.Density[c] = make([][]float64, end-start)
			for i := range rs.Density[c] {
				rs.Density[c][i] = make([]float64, k.PlaneCells())
			}
		}
		ranks[r] = rs
		manifest.Ranks = append(manifest.Ranks, checkpoint.RankRange{Rank: r, Start: start, Count: end - start})
	}
	pr.m.set("checkpoint.rank_set_save_s", pr.timeIt(id, "checkpoint.rank_set_save", func(sid int) {
		for _, rs := range ranks {
			pr.tr.do(sid, "checkpoint.SaveRank", "probe", func(int) { must("SaveRank", checkpoint.SaveRank(dir, rs)) })
		}
		pr.tr.do(sid, "checkpoint.Commit", "probe", func(int) { must("Commit", checkpoint.Commit(dir, manifest)) })
	}))
	pr.m.set("checkpoint.rank_set_bytes", dirBytes(dir))
	pr.m.set("checkpoint.load_run_s", pr.timeIt(id, "checkpoint.LoadRun", func(int) {
		_, err := checkpoint.LoadRun(dir, manifest)
		must("LoadRun", err)
	}))
}

// balanceProbe times the filtered policy's decision on the 2-rank
// inputs of the throttled run, and counts that run's remapping rounds
// as seen from outside: attempted is fixed by the interval, useful are
// those after which rank 0 held a new plane count.
func (pr *probes) balanceProbe(root int, out *remapOutcome) {
	pol := balance.NewFiltered(pr.pp.NY * pr.pp.NZ)
	planes := []int{pr.pp.NX / 2, pr.pp.NX - pr.pp.NX/2}
	predicted := []float64{1, 2}
	const rounds = 2000
	t := pr.timeIt(root, "balance.Round", func(int) {
		for i := 0; i < rounds; i++ {
			pol.Round(planes, predicted)
		}
	})
	pr.m.set("balance.round_us", t*1e6/rounds)
	pr.m.set("balance.rounds", float64((out.Phases-1)/pr.sc.RemapInterval))
	pr.m.set("balance.rounds_with_transfer", float64(out.PlaneChanges))
}

// machineProbe runs a STREAM triad for scale. Its arrays would have to
// be at least four times the last-level cache for the number to be the
// machine's sustainable memory bandwidth; on a box whose LLC is larger
// than that allows it is a cache bandwidth, so the array and LLC sizes
// are stated beside it and no kernel is reported as a share of it.
func (pr *probes) machineProbe(root int) {
	n := pr.sc.TriadMiB << 20 / 8
	a, b, c := make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range b {
		b[i], c[i] = 1, 2
	}
	best := 0.0
	for rep := 0; rep < 5; rep++ {
		t := pr.timeIt(root, "machine.triad", func(int) {
			for i := range a {
				a[i] = b[i] + 3*c[i]
			}
		})
		if rep == 0 || t < best {
			best = t
		}
	}
	if a[n/2] != 7 {
		pr.failf("triad result %v", a[n/2])
	}
	_, llc := cpuCaches()
	pr.m.set("machine.triad_gbps", float64(3*8*n)/best/1e9)
	pr.m.set("machine.triad_array_mib", float64(pr.sc.TriadMiB))
	pr.m.set("machine.llc_mib", llc)
}
