# Build/test/CI entry points. `make ci` is the gate: vet, gofmt, the full
# test suite under the race detector — load-bearing now that the
# experiment harness fans cells across goroutines — and an examples smoke
# test, plus a one-iteration benchmark smoke and the machine-readable
# BENCH_<date>.json snapshot.

GO ?= go
EXAMPLES := quickstart virtecho nestedboot recursive memcached

.PHONY: all build test race vet fmt-check examples-smoke fuzz-smoke perfbench-test perfbench-smoke ci bench bench-smoke bench-json bench-diff benchdiff-smoke jit-equiv-smoke smp-race smp-bench-smoke fleet-smoke profile

FUZZ_TARGETS := FuzzDifferentialNVvsNEVE FuzzFaultPlanRecovery FuzzParsePlan
FUZZTIME ?= 10s

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Fail on unformatted code; gofmt -l lists offending files.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# The harness's worker pool makes -race load-bearing: any shared mutable
# state in bench/kvm/x86 shows up here.
race:
	$(GO) test -race ./...

# Every example must build and exit 0.
examples-smoke:
	@for ex in $(EXAMPLES); do \
		echo "examples/$$ex"; \
		$(GO) run ./examples/$$ex >/dev/null || exit 1; \
	done

# Brief native-fuzzing pass over the differential and recovery targets
# (internal/fault/fuzz_test.go); seed corpora live under
# internal/fault/testdata/fuzz/. Any crasher or NV/NEVE divergence found
# within FUZZTIME fails the build.
fuzz-smoke:
	@for target in $(FUZZ_TARGETS); do \
		echo "fuzz $$target"; \
		$(GO) test -run=NONE -fuzz="^$$target$$" -fuzztime=$(FUZZTIME) ./internal/fault/ || exit 1; \
	done

ci: vet fmt-check race examples-smoke fuzz-smoke perfbench-test perfbench-smoke bench-smoke bench-json benchdiff-smoke jit-equiv-smoke smp-race smp-bench-smoke fleet-smoke

# The benchmark module (perfbench/, its own go.mod) is outside the root
# module, so `go test ./...` above skips it: run its per-cell digest
# checks here.
perfbench-test:
	cd perfbench && $(GO) test ./...

# Every benchmark workload end to end through its own entry point, once
# untraced and once traced, for one second each: perfbench-test only
# compiles the module and checks digests, so a run that exits non-zero
# (a failed span dump, a missing simulator export) or reports
# "correct": false shows up here first.
PERFBENCH_WORKLOADS := fig2 fig2-guarded micro smp-storm

perfbench-smoke:
	@for w in $(PERFBENCH_WORKLOADS); do for tr in 0 1; do \
		out="$$(python3 perfbench/run.py --workload $$w --seed 1 --seconds 1 --trace $$tr 2>&1)"; rc=$$?; \
		if [ $$rc != 0 ] || ! echo "$$out" | tail -1 | grep -q '"correct": *true'; then \
			echo "$$out"; echo "perfbench $$w trace=$$tr failed (exit $$rc)"; exit 1; \
		fi; \
		echo "perfbench $$w trace=$$tr ok"; \
	done; done

# Fleet orchestrator gate: a small sweep across 2 worker processes with
# a crash injected mid-sweep (worker 0 dies holding its 2nd cell, is
# respawned, the lost cell is retried) over a shared durable checkpoint
# store. -check re-runs the sweep in-process and exits non-zero unless
# the merged report is byte-identical — reconciliation to completion is
# the pass condition, not just "no crash".
fleet-smoke:
	@tmp="$$(mktemp -d)"; \
	$(GO) run ./cmd/nevesim fleet -workers 2 -configs vm,neve \
		-store "$$tmp" -kill-worker 0 -kill-after 2 -check >/dev/null; \
	rc=$$?; rm -rf "$$tmp"; exit $$rc

# SMP engine gate: the epoch-lockstep tests under the race detector (the
# parallel mode's happens-before edges are the whole design), plus the
# registry-wide byte-equivalence sweep — parallel vCPU execution must
# match sequential exactly on every ARM configuration.
smp-race:
	$(GO) test -race ./internal/kvm -run SMP
	$(GO) test ./internal/bench -run SMPEquivalence

# Interrupt-storm sweep cells end to end, under the race detector:
# nevesim smp exits non-zero if the parallel run's equivalence
# fingerprint diverges from the sequential one. The first cell uses
# adaptive epoch budgets; the second fixes a short budget, so its
# 16-vCPU parallel run crosses the per-vCPU resume/parked handshake on
# 97 epochs.
smp-bench-smoke:
	$(GO) run -race ./cmd/nevesim smp -cpus 8 -profile storm
	$(GO) run -race ./cmd/nevesim smp -budget 1000 -cpus 16 -profile storm

# Trace-JIT correctness smoke: every measured table and figure (`all`:
# Tables 1/6/7, Figure 2, events, ablation, optvhe and recursive) and the
# two three-level recursive stacks' microbenchmarks (deterministic, no
# wall times) must be byte-identical with super-ops replaying (-jit=on) and
# every trap interpreted (-jit=off). Any diff is a replay-path bug. The
# guarded runs keep the JIT on under a budget: two under a watchdog that
# trips (trap-storm), two under a fault plan that fires (an injected
# line). Their whole output (stdout, stderr with any SimError and its
# recent traps, the exit status; minus fleet's wall-time line) must match
# too, and must show that the budget acted.
jit-equiv-smoke:
	@for run in "all" "run -config recursive-v8.3" "run -config recursive-neve"; do \
		$(GO) run ./cmd/nevesim -jit=on $$run > .jit-on.tmp || exit 1; \
		$(GO) run ./cmd/nevesim -jit=off $$run > .jit-off.tmp || exit 1; \
		if diff .jit-on.tmp .jit-off.tmp; then \
			echo "$$run byte-identical jit-on vs jit-off"; \
		else \
			rm -f .jit-on.tmp .jit-off.tmp; \
			echo "$$run differs jit-on vs jit-off"; exit 1; \
		fi; \
	done; rm -f .jit-on.tmp .jit-off.tmp
	@$(GO) build -o .jit-nevesim.tmp ./cmd/nevesim || exit 1; \
	for check in "trap-storm:run -config v8.3 -max-traps 100" \
		"trap-storm:fleet -workers 1 -configs v8.3,v8.3-vhe,neve -max-traps 60000" \
		"injected:run -config v8.3 -faults seed=7,every=50,count=5" \
		"injected:run -config neve -faults seed=7,every=50,count=5"; do \
		want="$${check%%:*}"; run="$${check#*:}"; \
		for mode in on off; do \
			./.jit-nevesim.tmp -jit=$$mode $$run > .jit-raw.tmp 2>&1; \
			echo "exit $$?" >> .jit-raw.tmp; \
			grep -v '^fleet: .* cells over .* ms$$' .jit-raw.tmp > .jit-$$mode.tmp; \
		done; \
		if ! grep -q "$$want" .jit-on.tmp; then \
			echo "$$run: no $$want line, the budget never acted"; rc=1; \
		elif diff .jit-on.tmp .jit-off.tmp; then \
			echo "$$run byte-identical jit-on vs jit-off"; rc=0; \
		else \
			echo "$$run differs jit-on vs jit-off"; rc=1; \
		fi; \
		[ $$rc = 0 ] || break; \
	done; rm -f .jit-nevesim.tmp .jit-raw.tmp .jit-on.tmp .jit-off.tmp; exit $$rc

# Go benchmarks for the simulator's own speed (not the paper's numbers):
# memory/TLB fast paths, the trap hot path, the trace collector, and the
# end-to-end experiment cells.
bench:
	$(GO) test -run=NONE -bench 'BenchmarkMemoryReadWrite|BenchmarkTLB' ./internal/mem/ ./internal/mmu/
	$(GO) test -run=NONE -bench 'BenchmarkTrap|BenchmarkMSRFastPath' ./internal/arm/
	$(GO) test -run=NONE -bench 'BenchmarkCollectorTrap' ./internal/trace/
	$(GO) test -run=NONE -bench 'BenchmarkFig2|BenchmarkMicro' -benchtime 1x ./internal/bench/

# One-iteration pass over every benchmark: cheap CI proof that they run.
bench-smoke:
	$(GO) test -run=NONE -bench . -benchtime 1x ./internal/mem/ ./internal/mmu/ ./internal/arm/ ./internal/trace/ ./internal/bench/

# Machine-readable perf trajectory: writes BENCH_<date>.json.
bench-json:
	$(GO) run ./cmd/nevesim bench -json

# Compare two BENCH_*.json reports; exits non-zero on a >10% per-suite
# wall-time regression. Usage: make bench-diff OLD=a.json NEW=b.json
bench-diff:
	$(GO) run ./cmd/benchdiff $(OLD) $(NEW)

# CI smoke: diff the newest committed report against itself — always a
# zero-regression pass, proving benchdiff builds and parses the schema.
benchdiff-smoke:
	@latest="$$(ls BENCH_*.json | sort | tail -1)"; \
	echo "benchdiff $$latest $$latest"; \
	$(GO) run ./cmd/benchdiff "$$latest" "$$latest"

# Capture pprof profiles of the full suite run and of the SMP storm
# sweep (interpreted only: SMP runs detach the trace-JIT); see EXPERIMENTS.md
# ("Profiling") for how to read them.
profile:
	$(GO) run ./cmd/nevesim bench -cpuprofile cpu.pprof -memprofile mem.pprof
	$(GO) run ./cmd/nevesim smp -profile storm -cpuprofile smp.cpu.pprof >/dev/null
	@echo "wrote cpu.pprof, mem.pprof and smp.cpu.pprof; inspect with:"
	@echo "  $(GO) tool pprof -top cpu.pprof"
	@echo "  $(GO) tool pprof -top smp.cpu.pprof"
	@echo "  $(GO) tool pprof -top -sample_index=alloc_objects mem.pprof"
