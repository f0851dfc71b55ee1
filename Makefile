# Convenience targets for the UTS load-balancing reproduction.

GO ?= go

.PHONY: all build test race short bench bench-smoke bench-obs bench-des bench-relaxed bench-adapt experiments experiments-full clean lint lint-suppressions fuzz-smoke

all: build test

# bin/uts-vet is a real file target: it rebuilds only when the driver or
# the analyzer library changes, so repeated `make lint` runs skip the
# compile (and go vet's -V=full cache then skips unchanged packages).
UTS_VET_SRCS := $(wildcard cmd/uts-vet/*.go) $(wildcard internal/lint/*.go)

bin/uts-vet: $(UTS_VET_SRCS)
	$(GO) build -o $@ ./cmd/uts-vet

# Static analysis: the custom uts-vet analyzer suite (chargecheck,
# detcheck, noalloc, retrycheck, obscheck, atomiccheck, ordercheck,
# hookcheck — see internal/lint and DESIGN.md §11, §16) runs through
# go vet so test files are covered too, then the stale-suppression
# audit, then staticcheck and govulncheck when the binaries are
# installed (the CI lint job installs them; offline dev boxes may not).
lint: bin/uts-vet
	$(GO) vet -vettool=bin/uts-vet ./...
	./bin/uts-vet -unused-suppressions ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed; skipping (CI runs it)"; \
	fi
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "lint: govulncheck not installed; skipping (CI runs it)"; \
	fi

# Seeded-corpus fuzz smoke for the -fault mini-language parser.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzParseFaultSpec -fuzztime=10s ./internal/cluster/

build:
	$(GO) build ./...
	$(GO) vet ./...

test:
	$(GO) test ./...

short:
	$(GO) test -short ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# One iteration of every benchmark: catches bit-rot in benchmark code
# without measuring anything. Cheap enough for CI.
bench-smoke:
	$(GO) test -run '^$$' -bench=. -benchtime=1x ./...

# DES engine microbenches: batched vs legacy on identical event sequences.
bench-des:
	$(GO) test -run '^$$' -bench 'SimEngine|SimSteal' -benchtime=2s .

# Tracer overhead gate. A disabled tracer (nil lanes, one nil check per
# protocol call, nothing on the per-node loop) must keep
# BenchmarkTracerDisabled and BenchmarkSequentialSearch within 2% of the
# pre-tracer numbers in results/BENCH_PR1.json; BenchmarkTracerEnabled
# and BenchmarkLaneRec show the full recording cost (~hundreds of ns per
# protocol event, zero allocations).
bench-obs:
	$(GO) test -run '^$$' -bench 'Tracer|LaneRec|SequentialSearch|Sampler' -benchtime=2s .
	OBS_BENCH_GATE=1 $(GO) test -run TestSamplerOverheadGate -count=1 -v ./internal/des/

# Owner-path microbenches for the relaxed (fence-free) shared region: the
# lock-based release/reacquire burst vs the store-only publish / ledger-CAS
# retract burst, then the >=2x speedup gate (min of 3 runs per side;
# self-skips below 4 cores, where scheduling noise owns the timings —
# results/BENCH_PR8.json records what a 1-core host measures).
bench-relaxed:
	$(GO) test -run '^$$' -bench 'OwnerPath' -benchtime=2s .
	RELAXED_BENCH_GATE=1 $(GO) test -run TestRelaxedOwnerPathGate -count=1 -v .

# Closed-loop adaptive policy gate (DESIGN.md §15): sweep fixed chunks on
# T3XXL, then run the controller from the worst candidate and require
# >= 0.95x the best fixed rate. Deterministic DES — holds on any host
# (~20s single-core); results/BENCH_PR9.json records this container's run.
bench-adapt:
	ADAPT_BENCH_GATE=1 $(GO) test -run TestAdaptBenchGate -count=1 -v -timeout 10m ./internal/des/

# Regenerate every paper table/figure at quick scale (~3 min).
experiments:
	$(GO) run ./cmd/uts-bench -scale quick -csv results/quick | tee results/quick.txt

# Largest trees and PE counts this reproduction runs (~1 h).
experiments-full:
	$(GO) run ./cmd/uts-bench -scale full -csv results/full | tee results/full.txt

clean:
	$(GO) clean ./...
