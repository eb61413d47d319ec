GO ?= go

.PHONY: check build vet gofmt test race race-lbm chaos-abort examples-smoke bench bench-module kernel-pairs serve-smoke fuzz

# The CI gate: compile everything, vet, check formatting, run the full
# suite, the race detector in short mode (the -short guard trims the
# long abort-chaos sweep and physics soaks so the race pass stays
# around a minute), the examples that drive the remapping policies at
# tiny sizes, every Go benchmark once, then the benchmark module's vet,
# tests and smoke-size traced run.
check: build vet gofmt test race examples-smoke bench bench-module

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Every tracked Go file must be gofmt-clean; the offenders are listed.
gofmt:
	@files="$$(gofmt -l $$(git ls-files '*.go'))"; test -z "$$files" || { echo "gofmt -l:"; echo "$$files"; exit 1; }

test:
	$(GO) test ./...

race:
	$(GO) test -race -short ./...

# Full-mode (not -short) race pass over the intra-node bands, the
# transports and the distributed pipeline: the bands' in-memory frames
# (packed in one pool wake, read by the neighbours' sweeps in the next),
# the ranks' wire frames in payload buffers the mailboxes lease and
# recycle, and the plane pool a distributed group shares (a plane one
# rank sheds is the plane its neighbor's receive reuses) are the
# synchronization most worth re-proving on every change.
race-lbm:
	$(GO) test -race -count=1 ./internal/comm/... ./internal/lbm/... ./internal/parlbm/...

# The abort-safety sweep under the race detector: seeded cancels, wall
# limits, worker panics, and worker stalls against both the intra-node
# bands and the distributed phase loop — typed unwind, zero
# leaked goroutines, committed interrupt checkpoints, bit-identical
# resume — plus the distributed group's one abort path, the watcher
# that tears the transport down on a hard trip or an overrun grace.
chaos-abort:
	$(GO) test -race -run 'AbortChaos|RunParallelCancel|RunParallelWallLimit|RunParallelRankPanic|RunSupervised|RunGroupWatcher|BandWorkerPanic|BandStall' -v ./internal/experiments/ ./internal/parlbm/ ./internal/lbm/

# The example mains compile under `build` but nothing else runs them:
# run every one end to end at tiny sizes, under a second each — the two
# that drive the remapping policies (the virtual cluster and the live
# throttled solver) and the four physics mains (slipchannel runs two
# bands of the sequential solver on a machine with two or more CPUs).
examples-smoke:
	$(GO) run ./examples/nondedicated -phases 50
	$(GO) run ./examples/liveremap -phases 8 -delay 0s
	$(GO) run ./examples/quickstart -steps 40
	$(GO) run ./examples/slipchannel -nx 32 -ny 24 -nz 8 -steps 40
	$(GO) run ./examples/poiseuille -steps 200
	$(GO) run ./examples/groovedwall -steps 40

# Every Benchmark* once (about 10-20 s): the kernel benchmarks
# (BenchmarkFusedStepAoS, BenchmarkCollideAoS) are the instruments kernel
# speed claims rest on, so they must keep compiling and running.
bench:
	$(GO) test -run xxx -bench . -benchtime 1x ./...

# Alternating-order BenchmarkFusedStepAoS pairs of a base revision
# against the working tree, with the median ratio: the protocol a kernel
# speed claim is measured with (make kernel-pairs BASE=<rev> PAIRS=<n>).
BASE ?= HEAD
PAIRS ?= 5
kernel-pairs:
	bash scripts/kernel_pairs.sh $(BASE) $(PAIRS)

# bench/ is a module of its own, so the root `go test ./...` never
# compiles it: an API slip in a package it imports (internal/checkpoint,
# serve, parlbm, lbm) would otherwise surface only in the benchmark
# driver. Vet and test the module, then run the whole suite in smoke size
# with tracing (under 15 s together).
bench-module:
	cd bench && $(GO) vet . && $(GO) test ./...
	bash bench/run.sh -smoke -trace

# End-to-end smoke of the job server: boot slipd, push a curl burst
# through it, leave long jobs in flight, SIGTERM, and assert the
# graceful-drain contract — exit 0, every in-flight job persisted as
# interrupted+resumable with its checkpoint on disk, and a restarted
# server resuming one of them to completion.
serve-smoke:
	./scripts/serve_smoke.sh

# Coverage-guided fuzzing beyond the committed seed corpora (a CI job
# of its own, not part of `check`).
fuzz:
	$(GO) test -fuzz FuzzRead -fuzztime 30s ./internal/config/
	$(GO) test -fuzz FuzzPolicyRound -fuzztime 30s ./internal/balance/
	$(GO) test -fuzz FuzzReadContainer -fuzztime 20s ./internal/checkpoint/
	$(GO) test -fuzz FuzzJobSpec -fuzztime 20s ./internal/serve/
	$(GO) test -fuzz FuzzLoadStatus -fuzztime 20s ./internal/serve/
	$(GO) test -fuzz FuzzTCPReadLoop -fuzztime 20s ./internal/comm/
