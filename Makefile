GO ?= go

# tier1 is the gate every change must keep green: vet, full build, full test
# suite (which includes the docs lint in docs_test.go), and the race detector
# over every package — blas/lapack carry CPUID dispatch tables and pooled
# packing buffers, so they are race-relevant too, not just the engine and the
# layers on top of it.
.PHONY: tier1
tier1: vet build test race

# vet also gates formatting: every Go file in the checkout (tracked or new,
# minus what .gitignore excludes) must be gofmt-clean.
.PHONY: vet
vet:
	$(GO) vet ./...
	@out=$$(gofmt -l $$(git ls-files -co --exclude-standard '*.go')); \
	if [ -n "$$out" ]; then echo "gofmt -l lists unformatted files:"; echo "$$out"; exit 1; fi

.PHONY: build
build:
	$(GO) build ./...

.PHONY: test
test:
	$(GO) test ./...

.PHONY: race
race:
	$(GO) test -race ./...

# docs-lint runs the documentation checks on their own: no PLACEHOLDER
# markers in tracked *.md/*.json, no broken relative links in the curated
# doc set. `make test` runs these too (they live in docs_test.go).
.PHONY: docs-lint
docs-lint:
	$(GO) test -run 'TestDocs' .

# service-smoke builds luqr-serve, drives the job + cached-solve + graceful
# shutdown path over real HTTP, and checks /metrics agrees.
.PHONY: service-smoke
service-smoke:
	./scripts/service_smoke.sh

# bench regenerates the benchmark suite output (Tables/Figures as testing.B).
.PHONY: bench
bench:
	$(GO) test -bench=. -benchmem .

# bench-kernels regenerates the machine-readable kernel baseline.
.PHONY: bench-kernels
bench-kernels:
	$(GO) run ./cmd/luqr-bench -json BENCH_kernels.json

# bench-solver regenerates the schema-2 solver baseline at production sizes
# (default N=4096 nb=192): measured worker + tile-order sweeps, the simulated
# DAG-scaling curve, and dispatch ns/task vs. the single-heap seed.
.PHONY: bench-solver
bench-solver:
	$(GO) run ./cmd/luqr-bench -sweep-workers BENCH_solver.json -reps 3

# bench-solver-smoke is the non-gating CI check: a small sweep, the autotuner
# probe (persisted on first run, table hit on the second), and the α
# learn-then-apply loop (learned on the first run, applied from the persisted
# table on the second), then the generated file is validated against the
# schema-2 contract — which includes the mixed-precision section, so the
# validate step asserts the forced-f32 run engaged the float32 path and
# refined back into the HPL acceptance band, that it opened residency
# epochs and paid their boundary conversions (a zero there means the epoch
# counters came unwired), that the QR-stepping random operator's forced-f32
# row ran its QR updates resident with a bounded conversions-per-epoch
# ratio (per-column restacking would blow it up), and that the
# GEMM-dominated diagdom operator's auto run licensed real f32 steps.
# Numbers are not gated — only the machinery is.
.PHONY: bench-solver-smoke
bench-solver-smoke:
	$(GO) run ./cmd/luqr-bench -sweep-workers bench_solver_smoke.json -n 512 -nb 64 -reps 1
	$(GO) run ./cmd/luqr-bench -validate-solver bench_solver_smoke.json | grep -q 'mixed random f32: refined to tolerance'
	$(GO) run ./cmd/luqr-bench -validate-solver bench_solver_smoke.json | grep -Eq 'mixed random f32: .* [1-9][0-9]* epochs, [1-9][0-9]* conversions'
	$(GO) run ./cmd/luqr-bench -validate-solver bench_solver_smoke.json | grep -Eq 'mixed random f32: .* [1-9][0-9]* qr steps'
	$(GO) run ./cmd/luqr-bench -validate-solver bench_solver_smoke.json | grep -Eq 'mixed diagdom auto: .* [1-9][0-9]* f32 steps'
	$(GO) run ./cmd/luqr-bench -tune-probe -n 256 -tune-file tune_smoke.json
	$(GO) run ./cmd/luqr-bench -tune-probe -n 256 -tune-file tune_smoke.json | grep -q 'probe skipped'
	$(GO) run ./cmd/luqr-bench -alpha-learn -n 256 -nb 64 -reps 2 -tune-file tune_smoke.json
	$(GO) run ./cmd/luqr-bench -alpha-learn -n 256 -nb 64 -reps 1 -tune-file tune_smoke.json | grep -q 'applied learned α'
	rm -f bench_solver_smoke.json tune_smoke.json

# bench-diff prints a benchstat-style kernel before/after table. With no
# arguments it compares BENCH_kernels.json's committed seed baseline against
# its current section; pass OLD=path [NEW=path] to diff two generated files.
OLD ?=
NEW ?= BENCH_kernels.json
.PHONY: bench-diff
bench-diff:
	$(GO) run ./cmd/luqr-bench -diff-kernels $(NEW) $(if $(OLD),-diff-baseline $(OLD))
