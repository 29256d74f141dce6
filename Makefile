# Tier-1: the build/test gate every change must keep green. vet catches
# dropped-error patterns; the GOARCH=386 cross-build catches 32-bit key
# arithmetic regressions (the idHeap/bandKey int64 invariants) mechanically;
# the gofmt step fails on any unformatted file.
tier1:
	go build ./... && go test ./...
	go vet ./...
	GOARCH=386 go build ./...
	test -z "$$(gofmt -l .)"

# Tier-2: vet + race-checked tests + the chaos smoke + the value-store bench
# smoke + the incremental-engine bench smoke + the widening-point family
# smoke + a bounded fuzz pass — the concurrency gate for the parallel solver
# (PSW), the differential harness, and the fault-isolation layer. The
# perfbench module's own tests (a tiny run of every workload, each output
# check catching a corrupted result) run here too: they sit outside the root
# module, so go test ./... does not reach them.
tier2:
	go vet ./... && go test -race ./...
	cd perfbench && go test -short ./...
	$(MAKE) chaos-smoke
	$(MAKE) serve-smoke
	$(MAKE) cpw-smoke
	$(MAKE) bench-smoke
	$(MAKE) incr-smoke
	$(MAKE) slr-smoke
	$(MAKE) fuzz

# Chaos smoke: the seeded fault-injection property tests (every solver
# completes certified or aborts with a resumable checkpoint; PSW pool
# hygiene at workers 1/2/4/8) under the race detector.
chaos-smoke:
	go test -race -count=1 ./internal/chaos

# Serve smoke: the eqsolved daemon under the race detector — wire protocol,
# admission/rejection, preempt/resume bit-identity, mid-solve disconnect and
# network-fault leak checks, the seeded soak, and the daemon binaries
# end-to-end (including eqsolve -connect).
serve-smoke:
	go test -race -count=1 ./internal/serve/... ./cmd/eqsolved ./cmd/eqsolve

# Native fuzzing of the differential harness, the certifier, the chaos
# property, the wire and checkpoint decoders, and the analysis environments
# and powerset sets against their map oracles (seed corpora under
# internal/*/testdata/fuzz).
# Each target runs for FUZZTIME.
FUZZTIME ?= 10s
fuzz:
	go test ./internal/diffsolve -run '^$$' -fuzz '^FuzzSolvers$$' -fuzztime $(FUZZTIME)
	go test ./internal/diffsolve -run '^$$' -fuzz '^FuzzCertify$$' -fuzztime $(FUZZTIME)
	go test ./internal/diffsolve -run '^$$' -fuzz '^FuzzIncremental$$' -fuzztime $(FUZZTIME)
	go test ./internal/chaos -run '^$$' -fuzz '^FuzzChaos$$' -fuzztime $(FUZZTIME)
	go test ./internal/serve/proto -run '^$$' -fuzz '^FuzzProto$$' -fuzztime $(FUZZTIME)
	go test ./internal/ckptcodec -run '^$$' -fuzz '^FuzzCkptDecode$$' -fuzztime $(FUZZTIME)
	go test ./internal/analysis -run '^$$' -fuzz '^FuzzEnvOps$$' -fuzztime $(FUZZTIME)
	go test ./internal/lattice -run '^$$' -fuzz '^FuzzSetOps$$' -fuzztime $(FUZZTIME)

# Race-check just the solver package (fast inner loop while touching PSW).
race-solver:
	go test -race ./internal/solver/...

# CPW smoke: the chaotic intra-stratum solver's certified claim ladder under
# the race detector — the solver's own tests, the differential worker/core
# sweep with cross-core resume, the adversarial-schedule chaos harness, the
# serving-tier preemption path, and the CLI — plus a reduced giant-SCC bench
# run (-allow-serial: the smoke gate is certification, not speedup).
cpw-smoke:
	go test -race -count=1 -run 'CPW' ./internal/solver ./internal/diffsolve ./internal/chaos ./internal/serve ./cmd/eqsolve
	go run ./cmd/bench -cpw -smoke -allow-serial

# Regenerate the committed machine-readable perf trajectory. bench-psw
# refuses to run on GOMAXPROCS=1 hosts (serial hardware cannot measure
# parallel speedup); pass -allow-serial manually to record correctness-only
# rows with a prominent note in the JSON.
bench-psw:
	go run ./cmd/bench -psw -json BENCH_psw.json

# Regenerate the committed giant-SCC artifact at mega scale (>=1e5 unknowns
# in one SCC): the PSW no-speedup baseline against CPW at workers 1/2/4/8,
# every CPW row certified, plus the eqgen giant-SCC recipe row. Like
# bench-psw this refuses GOMAXPROCS=1 hosts unless -allow-serial is passed.
bench-mega:
	go run ./cmd/bench -cpw -mega -json BENCH_cpw.json

bench-unboxed:
	go run ./cmd/bench -unboxed -json BENCH_unboxed.json

bench-incr:
	go run ./cmd/bench -incr -json BENCH_incr.json

# Regenerate the committed widening-point-family artifact: SLR2/SLR3/SLR4
# precision (interval widths on the WCET suite) and evaluation totals (eqgen
# macro matrix) against the ⊟-everywhere SW baseline, every row certified.
bench-slr:
	go run ./cmd/bench -slr -slrjson BENCH_slr.json

# SLR smoke: the reduced WCET + eqgen matrices — certification and the
# at-least-one-strictly-tighter gate in seconds, without rewriting the
# committed artifact.
slr-smoke:
	go run ./cmd/bench -slr -smoke

# Incremental smoke: the reduced edit-workload matrix — bit-identity of
# every incremental re-solve against its from-scratch control, on all three
# domains, in seconds.
incr-smoke:
	go run ./cmd/bench -incr -smoke

# Bench smoke: the reduced boxed-vs-words value-store matrix (bit-identity
# gate + timing sanity, minutes not tens of minutes) plus the -benchmem
# micro-benchmarks of the solver hot loops — including the zero-alloc
# unboxed rows — of warm CPW solves on its shared store (the per-run cost,
# on many strata and on one giant SCC), of warm SW beside PSW at one and
# two workers (the per-run cost on many small strata), of cold solves,
# where every operation compiles a fresh system (the build layer), and of
# incremental re-solves: a leaf edit and a Mutate batch with its undo (the
# write path), of eqgen.New per domain at N = 2048 (the system build a gen
# request pays), and of the paper's own path: three Fig. 7 kernels under ⊟
# and two-phase (SLR⁺ and TwoPhaseSidesKeyed) and the four Table 1
# configurations of 470.lbm. Keeps the perf claims continuously exercised
# without regenerating the committed BENCH_*.json artifacts.
bench-smoke:
	go run ./cmd/bench -unboxed -smoke
	go test ./internal/solver -run '^$$' -bench 'BenchmarkRR|BenchmarkSW|BenchmarkSLRThunk|BenchmarkColdSolve|BenchmarkCPW|BenchmarkPSW' -benchmem -benchtime 50x
	go test ./internal/incr -run '^$$' -bench 'BenchmarkResolveLeaf|BenchmarkResolveMutate' -benchmem -benchtime 50x
	go test ./internal/eqgen -run '^$$' -bench 'BenchmarkNew' -benchmem -benchtime 50x
	go test -run '^$$' -bench 'BenchmarkFig7/(bsort|select|ud)/(warrow|twophase)$$|BenchmarkTable1/470.lbm/' -benchmem -benchtime 20x .

.PHONY: tier1 tier2 chaos-smoke serve-smoke cpw-smoke fuzz race-solver bench-psw bench-mega bench-unboxed bench-smoke bench-incr incr-smoke bench-slr slr-smoke
