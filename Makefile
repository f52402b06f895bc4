GO ?= go

.PHONY: build test race vet lint chaos serve-test auto-test ckpt-test \
	fleet-test jit-test check figures bench-diff bench-vector bench-vector2 \
	bench-fault bench-auto bench-ckpt bench-fleet bench-jit wide-test fuzz \
	fuzz-smoke clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

## race runs the cancellation and concurrency-sensitive tests under the
## race detector; it is slower than `test` but catches data races the
## plain run cannot.
race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

## lint runs the repo's custom vet pass (tools/lint): syntactic checks
## for sync/atomic misuse around the per-worker counter surface.
lint:
	$(GO) run ./tools/lint ./...

## chaos runs the supervision-layer fault-injection suite under the race
## detector: induced worker panics, dropped wakeups and genuine stalls on
## every engine (guard_test.go), plus the guard package's own unit tests.
chaos:
	$(GO) test -race -timeout 5m -count=1 -run 'TestGuard' .
	$(GO) test -race -timeout 5m -count=1 ./internal/guard

## serve-test runs the simulation-service end-to-end suite (submit, poll,
## admission control, scheduler budget, drain) under the race detector.
serve-test:
	$(GO) test -race -timeout 5m -count=1 ./internal/server

## auto-test runs the engine-selection suite under the race detector: the
## static profiler's golden fingerprints, the cost-model predictions, and
## the auto engine's end-to-end selection path.
auto-test:
	$(GO) test -race -timeout 5m -count=1 ./internal/analyze ./internal/machine ./internal/auto

## ckpt-test runs the crash-durability suite under the race detector: the
## snapshot codec (round-trip, corruption, the FuzzCheckpoint corpus), the
## async coalescing writer, bit-identical resume on every engine, the
## parsimd job journal + restart recovery, and the end-to-end kill -9
## daemon test.
ckpt-test:
	$(GO) test -race -timeout 5m -count=1 -run 'TestResume' .
	$(GO) test -race -timeout 5m -count=1 ./internal/checkpoint
	$(GO) test -race -timeout 5m -count=1 -run 'TestJournal|TestRecovery|TestDrainResume' ./internal/server
	$(GO) test -race -timeout 5m -count=1 ./cmd/parsimd

## fleet-test runs the cluster suite under the race detector: the
## consistent-hash ring and content-addressed key units, the coordinator
## multi-node end-to-end tests (including the mid-run node-kill requeue
## drill and fleet-wide backpressure), and the single-node dedup layer.
fleet-test:
	$(GO) test -race -timeout 10m -count=1 ./internal/cluster
	$(GO) test -race -timeout 5m -count=1 -run 'TestDedup' ./internal/server

## jit-test runs the codegen-engine suite under the race detector: the
## per-kernel truth-table proofs (scalar, one-word and wide planes), the
## engine's unit tests (gang vs one-worker equivalence, stripe ownership),
## the checked-in differential fuzz corpus replay and the bit-identical
## resume tests under both lane engine names (jit and vector, including the
## mid-pass fault-simulation resume). A one-iteration smoke of the barrier
## and jit step-loop microbenchmarks keeps them building.
jit-test:
	$(GO) test -race -timeout 5m -count=1 ./internal/codegen
	$(GO) test -race -timeout 5m -count=1 -run 'TestResumeJIT|TestResumeVector|FuzzEngines|TestFuzzCorpusSeedsReplay' .
	$(GO) test -run '^$$' -bench . -benchtime 1x ./internal/barrier ./internal/codegen

check: build vet lint test race chaos serve-test auto-test ckpt-test fleet-test jit-test

## figures regenerates the quick machine-readable benchmark snapshot.
figures:
	$(GO) run ./cmd/figures -quick -json BENCH_baseline.json

## bench-diff regenerates the quick snapshot into a scratch file and
## compares it point-by-point against the tracked BENCH_baseline.json
## (tools/benchdiff, 15% relative tolerance). The second leg re-measures
## the v2 lanes x workers sweep against BENCH_vector2.json: its gated
## series are worker-normalised lane-amortization ratios, so they compare
## across hosts, but they still ride on wall-clock — hence the loose 50%
## tolerance. Fails on drift; after an intentional model change,
## re-baseline with `make figures` / `make bench-vector2`.
bench-diff:
	$(GO) run ./cmd/figures -quick -json .bench-current.json
	$(GO) run ./tools/benchdiff BENCH_baseline.json .bench-current.json
	$(GO) run ./cmd/figures -fig v2 -mode real -quick -json .bench-current.json
	$(GO) run ./tools/benchdiff -tol 0.5 -abs 0.5 BENCH_vector2.json .bench-current.json
	$(GO) run ./cmd/figures -fig j1 -mode real -json .bench-current.json
	$(GO) run ./tools/benchdiff -tol 0.5 -abs 0.5 BENCH_jit.json .bench-current.json
	rm -f .bench-current.json

## bench-vector regenerates the batched-engine throughput snapshot: the
## v1 experiment sweeps stimulus lanes on the inverter array and records
## per-vector speed-up over the scalar compiled engine.
bench-vector:
	$(GO) run ./cmd/figures -fig v1 -mode real -json BENCH_vector.json

## bench-vector2 regenerates the lanes x workers sweep (v2): wide planes
## multiply the lane axis with the worker axis; the snapshot records the
## per-vector throughput matrix and the >=4x acceptance ratio note.
bench-vector2:
	$(GO) run ./cmd/figures -fig v2 -mode real -quick -json BENCH_vector2.json

## bench-fault regenerates the concurrent stuck-at fault-simulation
## snapshot (f1): coverage, collapse rate and pass counts on the paper
## circuits; the series are deterministic.
bench-fault:
	$(GO) run ./cmd/figures -fig f1 -mode real -json BENCH_fault.json

## bench-auto regenerates the engine-selection snapshot (a1): engine=auto's
## measured wall against the best of every engine x worker combination on
## the paper circuits; acceptance is ratio >= 0.9 everywhere.
bench-auto:
	$(GO) run ./cmd/figures -fig a1 -mode real -quick -json BENCH_auto.json

## bench-ckpt regenerates the checkpointing-overhead snapshot (c1): the
## compiled engine on the four paper circuits, plain vs checkpointing at
## the default capture interval and write gap, measured in process CPU
## time; acceptance is <=1.05x on every circuit.
bench-ckpt:
	$(GO) run ./cmd/figures -fig c1 -mode real -json BENCH_ckpt.json

## bench-jit regenerates the codegen-engine snapshot (j1): jit vs compiled
## wall-clock on the gate-level multiplier and the microprocessor at 1-4
## workers; acceptance is >=1.5x over compiled at one worker on both.
bench-jit:
	$(GO) run ./cmd/figures -fig j1 -mode real -json BENCH_jit.json

## bench-fleet regenerates the fleet-layer snapshot (d1): job throughput
## of 1..3 coordinator-routed nodes via the deterministic fleet model
## (real ring, real spill/backpressure policy; acceptance is >= 2.2x at
## 3 nodes), plus a real measurement of dedup-hit latency against
## re-simulating the identical submission (acceptance is >= 10x faster).
## Add `-mode real` by hand to wall-clock an actual in-process fleet.
bench-fleet:
	$(GO) run ./cmd/figures -fig d1 -json BENCH_fleet.json

## wide-test runs the wide-plane and fault-simulation suites under the
## race detector — the same leg CI's wide-lane job runs.
wide-test:
	$(GO) test -race -timeout 5m -count=1 -run Wide ./internal/vector ./internal/codegen ./internal/analyze ./internal/logic ./internal/server .

## fuzz explores new inputs for the cross-engine differential harness.
## The checked-in corpus under testdata/fuzz/FuzzEngines already replays
## on every plain `go test` run (so `check` covers it, with -race).
fuzz:
	$(GO) test -fuzz=FuzzEngines -fuzztime=5m -run '^$$' .

## fuzz-smoke is the CI-sized fuzz budget.
fuzz-smoke:
	$(GO) test -fuzz=FuzzEngines -fuzztime=30s -run '^$$' .

clean:
	$(GO) clean ./...
	rm -f .bench-current.json
