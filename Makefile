# Tier-1 verification: everything here must stay green.
#
#   make verify     build + vet + gofmt + full test suite (the tier-1
#                   gate), including the bench/ module's short tests (a
#                   nested module the root `go test ./...` does not reach)
#   make race       race-detector job (short mode: the figure-scale
#                   simulations are pure compute on one goroutine and
#                   would take >10 min under the detector for no extra
#                   race coverage; -short keeps the concurrent paths —
#                   sweeps, meters — under the detector in ~2 min)
#   make chaos      fault-injection suite only
#   make chaos-race chaos acceptance + sentinel tests under the race
#                   detector (-short), its own CI job
#   make bench      microbenchmarks (engine + datapath + full-system
#                   throughput) -> BENCH_baseline.json
#   make bench-smoke
#                   CI gate: every microbenchmark runs once (the fluid
#                   tick and digest and the registry digest included),
#                   then the zero-alloc guards (engine, memory
#                   controller, ring, packet pool, two-host datapath,
#                   telemetry, the fluid tick with pass helpers and the
#                   fluid snapshot's chunk digests, the registry digest's
#                   kept buffer, the sweep batch, and the whole host-bound
#                   testbed with 3x MApp and hostCC) must hold
#   make api-compat build + vet the examples module against the public
#                   API only (fails if an internal type leaks)
#   make telemetry-overhead
#                   rerun BenchmarkEngineThroughput and gate the delta
#                   vs BENCH_baseline.json (telemetry disabled-path
#                   budget, default 2%; override TOLERANCE_PCT=N)
#   make figures    regenerate the quick-scale figures
#   make topology-smoke
#                   short leaf-spine scale-out run, replay-verified
#                   (two runs must produce bit-identical digests)
#   make fluid-smoke
#                   hybrid fluid/packet tier gate: fluid-vs-packet
#                   validation bands, promote/demote determinism,
#                   sharded replay, plus a replay-verified CLI run with
#                   a fluid background population
#   make bench-fluid
#                   time the fluid-tier leaf-spine scale-out across
#                   10k/100k/1M background flows at 1, 2 and 4 shards
#                   -> BENCH_fluid.json (wall clock vs flow count)
#   make bench-parallel
#                   time the 128-sender leaf-spine scale-out at 1, 2 and
#                   4 shards -> BENCH_parallel.json (speedup report; the
#                   recorded speedup is only meaningful on >=4 cores)
#   make parallel-determinism
#                   sharded-engine gate: single-shard goldens unchanged,
#                   multi-shard runs replay-deterministic, chaos
#                   acceptance at 4 shards
#   make crucible-smoke
#                   chaos search over fixed seeds (must pass clean) plus
#                   the planted-canary hunt (must find and minimize it)
#   make crucible-corpus
#                   replay every checked-in minimized repro under
#                   -race -short; each must reproduce its recorded
#                   oracle verdict
#   make eval-smoke CC evaluation matrix gate: the full scheme registry
#                   through the default 2-topology x 2-workload matrix
#                   (every cell replay-verified, hostCC must re-rank the
#                   schemes under the host-bottleneck workload), then a
#                   mini-matrix rendered twice must be byte-identical
#                   -> BENCH_evalharness.json

GO ?= go

.PHONY: all build test verify race chaos chaos-race bench bench-smoke bench-parallel bench-fluid parallel-determinism api-compat telemetry-overhead figures vet staticcheck replay topology-smoke fluid-smoke crucible-smoke crucible-corpus eval-smoke

all: verify race

build:
	$(GO) build ./...

test:
	$(GO) test ./...
	cd bench && $(GO) test -short ./...

verify: build vet staticcheck test api-compat

# vet also gates formatting: gofmt must have nothing to change in the
# root module or the examples module (not bench/, its own module, nor the
# hidden build directories).
vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l $$(find . -name '*.go' -not -path './bench/*' -not -path './.*')); \
	if [ -n "$$unformatted" ]; then echo "gofmt -l lists files to format:"; echo "$$unformatted"; exit 1; fi

# staticcheck is optional tooling: run it when installed, skip with a
# notice otherwise (CI images without it must not fail the gate).
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

# Determinism gate: golden digests, checkpoint replay, sentinel, and the
# verified-run comparison table.
replay:
	$(GO) test ./internal/testbed/ -run 'TestGoldenDigest|TestReplay|TestSentinel|TestDivergence|TestCheckpoint|TestVerified' -count=1

# Scale-out smoke: a short leaf-spine run with replay verification — the
# bench runs the fabric twice through testbed.RunVerified and fails unless
# the frame count, every digest frame and the final per-component digests
# match bit-for-bit. Fast enough for CI (~2 s).
topology-smoke:
	$(GO) run ./cmd/hostcc-bench -topology leafspine -senders 32 -seed 42

# Hybrid fluid/packet tier gate: the checked-in validation bands
# (fluid-vs-packet utilization on star and dumbbell), promote/demote
# determinism under a trunk-flap window, sharded replay stability, and
# one replay-verified CLI run carrying a fluid background population.
fluid-smoke:
	$(GO) test ./internal/fluid/ ./internal/testbed/ -run 'TestFluid' -short -count=1
	$(GO) run ./cmd/hostcc-bench -topology leafspine -senders 16 -seed 42 -shards 2 		-fluid-hosts 64 -fluid-promotable 4

# Fluid-tier scaling report: wall clock vs background flow count
# (10k/100k/1M) at 1, 2 and 4 shards. The coarse-tick integrator is the
# point — a million background flows cost minutes, not the hours a
# packet-level population would.
bench-fluid:
	$(GO) run ./cmd/hostcc-bench -bench-fluid BENCH_fluid.json -seed 42

# Parallel-engine speedup report: the 128-sender leaf-spine scale-out
# timed at 1, 2 and 4 shards. The JSON records the core count alongside
# the wall times — interpret the speedup only on >=4 cores.
bench-parallel:
	$(GO) run ./cmd/hostcc-bench -bench-parallel BENCH_parallel.json -leaves 4 -spines 2 -senders 128 -seed 42

# Sharded-engine determinism gate: (1) the golden digests match byte for
# byte — the serial rows (one plain engine on the same construction path
# as every shard count) and the pinned 2- and 4-shard rows; (2)
# multi-shard runs are run-twice deterministic (each goes through
# testbed.RunVerified: executed twice, recordings compared frame by frame
# and at the final state); (3) the chaos acceptance rows hold at 4 shards.
parallel-determinism:
	$(GO) test ./internal/testbed/ -run 'TestGoldenDigest|TestTopologyGoldenDigests' -count=1
	$(GO) test ./internal/testbed/ ./internal/sim/ -run 'TestSharded|TestShard' -count=1
	$(GO) run ./cmd/hostcc-bench -topology leafspine -leaves 4 -spines 2 -senders 32 -seed 42 -shards 4

race:
	$(GO) test -race -short ./...

# CC evaluation matrix gate, two halves: (1) the full scheme registry
# {dctcp, reno, cubic, dcqcn, delay, bbr, hpcc} through the default
# star+leafspine x fanin+hostbound matrix, both hostCC arms, every cell
# replay-verified (run twice, digest timelines compared frame by frame);
# -eval-expect-shift fails the run unless hostCC re-ranks the schemes in
# a host-bottleneck pane — the paper's qualitative claim as an exit
# code. (2) Determinism: a mini-matrix rendered twice must produce
# byte-identical markdown (each row embeds the cell's state digest, so
# report equality is digest equality).
eval-smoke:
	$(GO) run ./cmd/hostcc-bench -eval -eval-expect-shift -seed 42 		-eval-md /tmp/eval_full.md -eval-json BENCH_evalharness.json
	$(GO) run ./cmd/hostcc-bench -eval -seed 42 -eval-schemes dctcp,bbr 		-eval-topos star,leafspine -eval-workloads hostbound -eval-md /tmp/eval_smoke_a.md
	$(GO) run ./cmd/hostcc-bench -eval -seed 42 -eval-schemes dctcp,bbr 		-eval-topos star,leafspine -eval-workloads hostbound -eval-md /tmp/eval_smoke_b.md
	cmp /tmp/eval_smoke_a.md /tmp/eval_smoke_b.md
	@echo "eval-smoke: full matrix verified; mini-matrix reports byte-identical"

# Chaos-search smoke: a fixed-seed sweep that must come up clean, then
# the planted-canary self-test — the harness must find the flag-guarded
# PCIe credit bug and shrink it, or the oracle battery has gone blind.
crucible-smoke:
	$(GO) run ./cmd/hostcc-crucible -seeds 24 -q
	@if $(GO) run ./cmd/hostcc-crucible -seeds 8 -canary pcie-extra-credit -stop -q >/dev/null 2>&1; then \
		echo "crucible-smoke: canary hunt found nothing — the oracle battery is blind"; exit 1; \
	else \
		echo "crucible-smoke: canary found and minimized (expected failure observed)"; \
	fi

# Corpus replay gate: every checked-in minimized repro must reproduce
# its recorded oracle verdict, under the race detector.
crucible-corpus:
	$(GO) test -race -short ./internal/crucible/ -run TestCorpus -count=1 -v

chaos:
	$(GO) test ./internal/faults/ ./internal/testbed/ -run 'TestChaos' -count=1

# Chaos acceptance under the race detector: the acceptance table (incl.
# the replay-verified lossless scenarios) and the sentinel tests, -short
# so the full-scenario sweep stays out of the detector. This is the
# "faults + pause machinery + sentinel classifier race-free" gate; the
# blanket `make race` already covers the rest of the tree.
chaos-race:
	$(GO) test -race -short ./internal/faults/ ./internal/testbed/ -run 'TestChaos|TestSentinel|TestSharded' -count=1

# Microbenchmark suite. The -json stream is written to BENCH_baseline.json
# (one test2json object per line); reconstruct benchstat input with
#   jq -r 'select(.Action=="output").Output' BENCH_baseline.json | benchstat /dev/stdin
bench:
	$(GO) test -run '^$$' -bench 'BenchmarkEngine|BenchmarkDatapath' -benchmem -count=1 -json ./internal/sim/ ./internal/host/ . > BENCH_baseline.json
	@sed -n 's/.*"Output":"\(Benchmark[^"]*\)\\n".*/\1/p' BENCH_baseline.json | sed 's/\\t/	/g'
	@echo "wrote BENCH_baseline.json"

# bench-smoke is the CI gate: every benchmark must still run (one
# iteration) and the zero-alloc guards must hold. The one-iteration
# stream is only a liveness check, so it goes to a temporary file and
# never replaces the recorded baseline in BENCH_baseline.json.
bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkEngine|BenchmarkDatapath' -benchtime=1x 		-benchmem -count=1 -json ./internal/sim/ ./internal/host/ . > /tmp/bench_smoke.json
	$(GO) test -run '^$$' -bench 'BenchmarkFluid|BenchmarkRegistryDigests' -benchtime=1x 		-benchmem -count=1 ./internal/fluid/ ./internal/snapshot/
	$(GO) test ./internal/sim/ ./internal/mem/ ./internal/ring/ ./internal/packet/ ./internal/host/ ./internal/telemetry/ ./internal/testbed/ 		./internal/fluid/ ./internal/snapshot/ ./internal/sweep/ -run 'ZeroAlloc|NoAlloc' -count=1 -v | grep -E '^(=== RUN|--- |ok|FAIL)'

# API-compat gate: examples/ is a separate module that can only see the
# repo's exported API, so building it fails the moment a public signature
# breaks or an internal type leaks into the examples.
api-compat:
	cd examples && $(GO) build ./... && $(GO) vet ./...

# Telemetry-overhead gate: with telemetry disabled (the default),
# full-system simulation throughput must stay within TOLERANCE_PCT of the
# recorded baseline. Record the baseline with `make bench` on the same
# machine first.
TOLERANCE_PCT ?= 2
telemetry-overhead:
	$(GO) test -run '^$$' -bench 'BenchmarkEngineThroughput' -benchmem -count=1 -json . > /tmp/bench_current.json
	$(GO) run ./cmd/benchgate -baseline BENCH_baseline.json -current /tmp/bench_current.json 		-bench BenchmarkEngineThroughput -tolerance $(TOLERANCE_PCT)

figures:
	$(GO) run ./cmd/hostcc-bench -fig all -scale quick
