GO ?= go

.PHONY: check build vet test race race-lbm race-layout chaos-abort bench bench-module serve-smoke fuzz

# The CI gate: compile everything, vet, run the full suite, the race
# detector in short mode (the -short guard trims the long abort-chaos
# sweep and physics soaks so the race pass stays around a minute),
# then the benchmark module's vet, tests and smoke-size traced run.
check: build vet test race bench-module

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

# The abort-safety sweep under the race detector: seeded cancels, wall
# limits, worker panics, and worker stalls against both the intra-node
# band scheduler and the distributed phase loop — typed unwind, zero
# leaked goroutines, committed interrupt checkpoints, bit-identical
# resume.
chaos-abort:
	$(GO) test -race -run 'AbortChaos|RunParallelCancel|RunParallelWallLimit|RunParallelRankPanic|RunSupervised' -v ./internal/experiments/ ./internal/parlbm/ ./internal/lbm/

bench:
	$(GO) test -run xxx -bench . -benchtime 1x ./...

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

# Coverage-guided fuzzing beyond the committed seed corpora.
fuzz:
	$(GO) test -fuzz FuzzRead -fuzztime 30s ./internal/config/
	$(GO) test -fuzz FuzzPolicyRound -fuzztime 30s ./internal/balance/
	$(GO) test -fuzz FuzzReadContainer -fuzztime 20s ./internal/checkpoint/
	$(GO) test -fuzz FuzzJobSpec -fuzztime 20s ./internal/serve/
