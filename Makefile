GO ?= go
# Per-benchmark budget for the machine-readable bench run; raise it for
# stable numbers, lower it for a quick smoke pass.
BENCHTIME ?= 0.2s

.PHONY: all build vet test race stress bench bench-json bench-diff experiments docs-check examples-smoke chaos fuzz-smoke clean

all: vet build test docs-check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Concurrency stress: 50 race-detector runs of the packages whose tests
# race goroutines against each other — the retry queue's at-most-once
# flush, the delivery pipeline, the replication stream, the shared ring
# behind the trace and logging planes, and server assembly. A flake here
# is a defect to fix at its source. CI runs this as the stress job.
stress:
	$(GO) test -race -count=50 ./internal/queue/ ./internal/delivery/ ./internal/replica/ ./internal/trace/ ./internal/logging/ ./internal/ring/ ./internal/node/

bench:
	$(GO) test -bench=. -benchmem .

# Machine-readable benchmark results: run the root benchmark suite with
# -benchmem and record name → ns/op, B/op, allocs/op (+ custom metrics)
# in BENCH_results.json. CI runs this as a non-blocking step and uploads
# the artifact.
bench-json:
	$(GO) test -run XXX -bench . -benchmem -benchtime $(BENCHTIME) . | $(GO) run ./cmd/bench-json -o BENCH_results.json

# Compare fresh benchmark runs against the committed BENCH_results.json and
# warn on >25% ns/op regressions. The suite runs TWICE: bench-diff takes the
# best of both runs and uses the run-to-run spread as a per-benchmark noise
# floor, which makes BENCH_DIFF_FLAGS=-fail safe as a CI gate even on noisy
# shared runners. Warn-only by default.
BENCH_BASELINE ?= BENCH_results.json
bench-diff:
	$(GO) test -run XXX -bench . -benchmem -benchtime $(BENCHTIME) . | $(GO) run ./cmd/bench-json -o /tmp/bench-current.json
	$(GO) test -run XXX -bench . -benchmem -benchtime $(BENCHTIME) . | $(GO) run ./cmd/bench-json -o /tmp/bench-noise.json
	$(GO) run ./cmd/bench-diff -baseline $(BENCH_BASELINE) -current /tmp/bench-current.json -noise /tmp/bench-noise.json -threshold 25 $(BENCH_DIFF_FLAGS)

# Render every experiment table (E1–E12).
experiments:
	$(GO) run ./cmd/alert-bench

# Verify README package table, package doc comments and docs/ links.
docs-check:
	$(GO) run ./cmd/docs-check

# The E16 chaos-soak gate: the scale/chaos acceptance tests under -race
# (short schedule — 20k-profile population), the E18 health-plane
# acceptance (deterministic fire/clear, mode-identical meta-alerts,
# readiness across failover), plus the concurrency composition test and
# the fault-engine suites. CI runs this as the chaos-soak job and uploads
# a cmd/loadgen summary + health transition log as artifacts; run
# cmd/loadgen directly for the full 100k-profile soak.
chaos:
	$(GO) test -race -short -count=1 -timeout 600s \
		-run 'TestChaosSoak|TestPromotionConcurrent|TestLoadGen|TestClassSLO|TestHealth' ./internal/sim/
	$(GO) test -race -count=1 ./internal/chaos/ ./internal/transport/ ./internal/queue/ ./internal/health/

# Run each fuzz target briefly against its committed corpus plus a short
# exploration budget (regression seeds under testdata/fuzz are always
# replayed by plain `go test`).
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test -fuzz 'FuzzParse$$' -fuzztime $(FUZZTIME) ./internal/profile/
	$(GO) test -fuzz FuzzParseText -fuzztime $(FUZZTIME) ./internal/profile/
	$(GO) test -fuzz FuzzUnmarshal -fuzztime $(FUZZTIME) ./internal/protocol/

# Build and run every example program with a timeout, so the walkthroughs
# cannot silently rot. Each example is a self-terminating demo; a hang or a
# non-zero exit fails the target.
examples-smoke:
	@set -e; for d in examples/*/; do \
		echo "== $$d"; \
		timeout 120 $(GO) run ./$$d > /dev/null; \
	done; echo "examples-smoke: all examples built and ran"

clean:
	$(GO) clean ./...
