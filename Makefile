GO ?= go

.PHONY: check build vet test race race-lbm race-layout chaos chaos-kill chaos-abort bench bench-json bench-paper bench-smoke bench-layout bench-refine bench-module serve-smoke fuzz

# The CI gate: compile everything, vet, run the full suite, the race
# detector in short mode (the -short guard trims the long chaos and
# physics soaks so the race pass stays around a minute), then the
# benchmark smoke sweep with schema validation.
check: build vet test race bench-smoke

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race -short ./...

# Full-mode (not -short) race pass over the intra-node ownership
# scheduler and the distributed pipeline: the band workers' boundary
# token exchange and the halo protocols are the synchronization most
# worth re-proving on every change.
race-lbm: race-layout
	$(GO) test -race -count=1 ./internal/lbm/... ./internal/parlbm/...

# Targeted race pass over the layout matrix: the AoS x SoA bit-identity
# rows (both stepping paths, both precisions, multi-band), the layout
# run-artifact comparisons, and the SoA zero-alloc legs — the SoA
# kernels' multi-band and distributed scheduling re-proved directly.
race-layout:
	$(GO) test -race -count=1 -run 'TestBitIdentityMatrix|TestLayout|TestPackBytesLayoutIndependent|TestStepParallelZeroAllocs|TestTranspose' ./internal/lbm/ ./internal/parlbm/ ./internal/field/

# The full chaos suite under the race detector (several minutes): every
# seeded fault schedule against the distributed pipeline.
chaos:
	$(GO) test -race -run 'Chaos|Masks|Fault' ./internal/experiments/ ./internal/parlbm/ ./internal/comm/

# The permanent-death recovery sweep under the race detector: seeded
# rank kills after committed checkpoints, shrink-to-survivors recovery,
# bit-identical final fields.
chaos-kill:
	$(GO) test -race -run 'KillChaos|Recoverable' -v ./internal/experiments/ ./internal/parlbm/

# The abort-safety sweep under the race detector: seeded cancels, wall
# limits, worker panics, and worker stalls against both the intra-node
# band scheduler and the distributed phase loop — typed unwind, zero
# leaked goroutines, committed interrupt checkpoints, bit-identical
# resume.
chaos-abort:
	$(GO) test -race -run 'AbortChaos|RunParallelCancel|RunParallelWallLimit|RunParallelRankPanic|RunSupervised' -v ./internal/experiments/ ./internal/parlbm/ ./internal/lbm/

bench:
	$(GO) test -run xxx -bench . -benchtime 1x ./...

# The perf-trajectory sweep: pinned-size step benchmarks over the
# intra-node (reference and fused) and distributed solvers — the latter
# across the slim/wide halo wire formats with measured comm_bytes, at
# both scalar precisions — written to BENCH_<date>.json (schema
# microslip-bench/v3, validated after the write). Commit the report to
# record a perf point in history.
bench-json:
	$(GO) run ./cmd/lbmbench -precision f64,f32
	$(GO) run ./cmd/lbmbench -check $$(ls -t BENCH_*.json | head -1)

# The paper-size sweep behind the committed BENCH trajectory: the
# 32x48x16 continuity grid plus 200x100x20 and 400x200x20 at workers
# 1..8, both precisions, with the scaling-efficiency gate enforced by
# the -check pass.
bench-paper:
	$(GO) run ./cmd/lbmbench -paper -precision f64,f32
	$(GO) run ./cmd/lbmbench -check $$(ls -t BENCH_*.json | head -1)

# A few-second version of the sweep for CI: ranks=2 across slim, wide,
# and coalesced halo configurations, emitted as bench_smoke.json; the
# schema check also validates the comm_bytes accounting (presence,
# sent/recv balance, nonzero halo traffic — and, when both precisions
# are present, that the f32 wire ships ~half the halo bytes). CI runs
# this as a matrix over BENCH_PRECISION; the default sweeps both
# precisions in one report so the compression cross-check applies.
BENCH_PRECISION ?= f64,f32
BENCH_LAYOUT ?= both
BENCH_REFINE ?= both
bench-smoke:
	$(GO) run ./cmd/lbmbench -quick -precision $(BENCH_PRECISION) -layout $(BENCH_LAYOUT) -refine $(BENCH_REFINE) -out bench_smoke.json
	$(GO) run ./cmd/lbmbench -check bench_smoke.json

# The refined-vs-uniform comparison at paper size: the 200x100x20 slip
# grid on the fused intra-node solver, uniform and two-level refined
# (12 fine rows per wall slab), one precision. The -check pass gates
# the refined entry's effective MLUPS against its uniform twin — the
# committed number behind the README's refinement speedup claim.
bench-refine:
	$(GO) run ./cmd/lbmbench -grid 200x100x20 -steps 40 -warmup 8 -workers 1 -ranks 1 \
		-fused on -overlap off -halo slim -coalesce off -layout aos -refine both \
		-precision f64 -out bench_refine.json
	$(GO) run ./cmd/lbmbench -check bench_refine.json

# The AoS-vs-SoA layout comparison on the smoke grid: both layouts,
# both stepping paths, one precision — the quick answer to "did a
# kernel change shift the layout tradeoff?" before paying for
# bench-paper.
bench-layout:
	$(GO) run ./cmd/lbmbench -quick -precision f64 -layout both -out bench_layout.json
	$(GO) run ./cmd/lbmbench -check bench_layout.json

# bench/ is a module of its own, so the root `go test ./...` never
# compiles it: an API slip in a package it imports (internal/checkpoint,
# serve, parlbm, lbm) would otherwise surface only in the benchmark
# driver. Vet and test the module, then run the whole suite in smoke size
# with tracing (under 15 s together).
bench-module:
	cd bench && $(GO) vet . && $(GO) test ./...
	bash bench/run.sh -smoke -trace

# End-to-end smoke of the job server: boot slipd, push a loadgen burst
# through it, leave long jobs in flight, SIGTERM, and assert the
# graceful-drain contract — exit 0, every in-flight job persisted as
# interrupted+resumable with its checkpoint on disk, and a restarted
# server resuming one of them to completion.
serve-smoke:
	./scripts/serve_smoke.sh

# Coverage-guided fuzzing beyond the committed seed corpora.
fuzz:
	$(GO) test -fuzz FuzzRead -fuzztime 30s ./internal/config/
	$(GO) test -fuzz FuzzPolicyRound -fuzztime 30s ./internal/balance/
	$(GO) test -fuzz FuzzReadContainer -fuzztime 20s ./internal/checkpoint/
