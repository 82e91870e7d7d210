# Developer entry points. CI (.github/workflows/ci.yml) gates every PR
# on go vet and the race detector (`make ci`), plus the chaos, benchgate
# and fuzz-smoke targets below. Each subsystem's acceptance checks
# (observability, runtime filters, governance, plan cache, serving,
# adaptive execution) are go tests in its package; `make race` runs them.

GO ?= go

.PHONY: build test race vet bench chaos benchgate benchgate-update fuzz-smoke ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./...

# The paper-artifact benchmarks (figures/tables) plus the operator and
# scheduler microbenchmarks. GIGNITE_PARBENCH_SF overrides the
# BenchmarkParallelExecute scale factor.
bench:
	$(GO) test -bench=. -benchmem -run '^$$'

# The fault-tolerance suite (chaos_test.go): seeded fault plans, replica
# failover, cancellation and goroutine-leak checks, twice under -race to
# shake out scheduling-dependent behaviour.
chaos:
	$(GO) test -race -count=2 -run 'TestChaos' .

# The benchmark-regression gate: measure the committed BENCH_gate.json
# query set and fail on >tolerance modeled-time or shipped-bytes
# regressions. The measured signals are deterministic simnet values, so
# the gate is host-independent.
benchgate:
	$(GO) run ./cmd/benchrunner -exp benchgate -metrics benchgate-metrics.json

# Refresh the committed baseline after an intentional performance change;
# commit the resulting BENCH_gate.json diff.
benchgate-update:
	$(GO) run ./cmd/benchrunner -exp benchgate -update-baseline

# Run every fuzz target briefly, seeded from testdata/fuzz. `go test
# -fuzz` accepts one target per invocation, hence the loop.
FUZZTIME ?= 30s
fuzz-smoke:
	@for t in $$($(GO) test -list 'Fuzz.*' . | grep '^Fuzz'); do \
		echo "fuzzing $$t for $(FUZZTIME)"; \
		$(GO) test -run '^$$' -fuzz "^$$t$$" -fuzztime $(FUZZTIME) . || exit 1; \
	done

ci: vet race
