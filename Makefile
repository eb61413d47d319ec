GO ?= go

.PHONY: check build vet gofmt test race race-lbm chaos-abort bench bench-module serve-smoke fuzz

# The CI gate: compile everything, vet, check formatting, run the full
# suite, the race detector in short mode (the -short guard trims the
# long abort-chaos sweep and physics soaks so the race pass stays
# around a minute), then the benchmark module's vet, tests and
# smoke-size traced run.
check: build vet gofmt test race bench-module

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

# Full-mode (not -short) race pass over the intra-node bands and the
# distributed pipeline: the bands' in-memory frame exchange, the ranks'
# wire frames, and the plane pool a distributed group shares (a plane
# one rank sheds is the plane its neighbor's receive reuses) are the
# synchronization most worth re-proving on every change.
race-lbm:
	$(GO) test -race -count=1 ./internal/lbm/... ./internal/parlbm/...

# The abort-safety sweep under the race detector: seeded cancels, wall
# limits, worker panics, and worker stalls against both the intra-node
# bands and the distributed phase loop — typed unwind, zero
# leaked goroutines, committed interrupt checkpoints, bit-identical
# resume — plus the distributed group's one abort path, the watcher
# that tears the transport down on a hard trip or an overrun grace.
chaos-abort:
	$(GO) test -race -run 'AbortChaos|RunParallelCancel|RunParallelWallLimit|RunParallelRankPanic|RunSupervised|RunGroupWatcher' -v ./internal/experiments/ ./internal/parlbm/ ./internal/lbm/

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
