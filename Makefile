GO ?= go

.PHONY: verify verify-race verify-sched chaos relay-soak fuzz bench bench-all bench-hotpath bench-gate bench-check qoe lint sloc

# Tier 1: the baseline gate — everything builds, every test passes
# (including the default chaos soaks), then the race detector and the
# long seed-sweeping soak.
verify: verify-race chaos
	$(GO) build ./...
	$(GO) test ./...

# Tier 2: static analysis plus the full suite under the race detector.
verify-race:
	$(GO) vet ./...
	$(GO) test -race ./...

# The scheduler contract: vclock.Virtual runs one actor at a time in a
# defined order, so every virtual-time result is the same at any GOMAXPROCS
# and on every repetition. The whole suite at 1, 2 and 4 procs, then the
# four packages built on the clock 20 times over and under the race
# detector (which checks that the baton hand-off orders the actors' shared
# state). Last, the relay's real-clock tests 20 times under the race
# detector: several goroutines feed and run each shard.
SCHED_PKGS = ./internal/vclock/ ./internal/harness/ ./internal/chaos/ ./internal/trafficgen/
verify-sched:
	GOMAXPROCS=1 $(GO) test -count=1 ./...
	GOMAXPROCS=2 $(GO) test -count=1 ./...
	GOMAXPROCS=4 $(GO) test -count=1 ./...
	$(GO) test -count=20 $(SCHED_PKGS)
	$(GO) test -race -count=1 $(SCHED_PKGS)
	$(GO) test -race -count=20 -run 'UDP|RealMode|FrontsAgree|Close' ./internal/relay/

# The long chaos soak: every scenario across CHAOS_SEEDS seeds, each run
# twice to prove per-phase stats are bit-identical, 10k frames per run,
# all in virtual time (see internal/chaos).
CHAOS_SEEDS ?= 5
CHAOS_FRAMES ?= 10000
chaos:
	$(GO) test ./internal/chaos/ -run 'TestSoak' -count 1 \
		-chaos.seeds $(CHAOS_SEEDS) -chaos.frames $(CHAOS_FRAMES) -v

# The relayd hosting soak: RELAY_SESSIONS two-site sessions multiplexed
# over a sharded virtual-time relay daemon while the phase controller
# cycles clean → burst-loss → partition → heal (see
# internal/relay/soak_test.go for the invariants it enforces, including
# per-session fleet verdicts and the single anomaly .rkcp bundle, written
# into RELAY_CAPTURE_DIR for CI to upload on failure).
RELAY_SESSIONS ?= 10000
RELAY_CAPTURE_DIR ?= relay-captures
relay-soak:
	mkdir -p $(RELAY_CAPTURE_DIR)
	RETROLOCK_RELAY_CAPTURE_DIR=$(RELAY_CAPTURE_DIR) \
		$(GO) test ./internal/relay/ -run 'TestRelaySoak' -count 1 \
		-relay.sessions $(RELAY_SESSIONS) -v

# Wire-format and toolchain fuzzers (coverage-guided; seeds always run
# under `make verify`).
FUZZTIME ?= 30s
fuzz:
	$(GO) test ./internal/lobby/ -fuzz FuzzLobbyParse -fuzztime $(FUZZTIME)
	$(GO) test ./internal/core/ -fuzz FuzzDecodeSync -fuzztime $(FUZZTIME)
	$(GO) test ./internal/core/ -fuzz FuzzDecodeSnapChunk -fuzztime $(FUZZTIME)
	$(GO) test ./internal/vm/ -fuzz FuzzDeltaRoundTrip -fuzztime $(FUZZTIME)
	$(GO) test ./internal/vm/ -fuzz FuzzApplyDeltaNeverPanics -fuzztime $(FUZZTIME)
	$(GO) test ./internal/container/ -fuzz FuzzContainer -fuzztime $(FUZZTIME)
	$(GO) test ./internal/rom/ -fuzz FuzzDecodeROM -fuzztime $(FUZZTIME)
	$(GO) test ./internal/replay/ -fuzz FuzzDecodeLog -fuzztime $(FUZZTIME)
	$(GO) test ./internal/rom/games/ -fuzz FuzzAssemble -fuzztime $(FUZZTIME)
	$(GO) test ./internal/flight/ -fuzz FuzzDecodeBundle -fuzztime $(FUZZTIME)
	$(GO) test ./internal/span/ -fuzz FuzzDecodeSpan -fuzztime $(FUZZTIME)
	$(GO) test ./internal/capture/ -fuzz FuzzDecodeCapture -fuzztime $(FUZZTIME)

# The steady-state sync loop with allocs/op; BenchmarkSyncHotPath must
# report 0 allocs/op (also enforced by TestSyncHotPathDoesNotAllocate).
bench-hotpath:
	$(GO) test -run NONE -bench 'SyncHotPath|SyncInputNoWait' -benchmem .

# The tracked perf surface — the sync hot path (plain, traced, and with
# the flight recorder attached), the dirty-page savestate/digest paths,
# the relayd packet path, and the history retention tick — rendered into
# the machine-readable $(BENCH_JSON) via cmd/benchjson. CI runs this and
# uploads the JSON as an artifact. The default output is the git-ignored
# scratch file, never the checked-in baseline: re-baselining is an explicit
# `make bench BENCH_JSON=BENCH_PR10.json`.
BENCH_JSON ?= BENCH_NEW.json
bench:
	$(GO) test -run NONE -bench 'SyncHotPath|SyncInputNoWait|StateHashIncremental|SavestateDelta|RelayDemux|RelayShardStep|HistorySample' -benchmem . \
		| $(GO) run ./cmd/benchjson -out $(BENCH_JSON)

# Regression gate: rebuild the perf report and diff it against the
# checked-in baseline with cmd/benchcmp. Fails on a >15% ns/op regression
# or any allocs/op growth on a gated benchmark — and on a gated benchmark
# disappearing from the fresh run.
BENCH_BASELINE ?= BENCH_PR10.json
bench-gate: bench
	$(GO) run ./cmd/benchcmp $(BENCH_BASELINE) $(BENCH_JSON)

# The benchmark module (bench/, see BENCHMARK.json) compiles against
# internal/... through a replace directive and the root build does not
# include it, so this is what notices a refactor breaking the API surface
# the benchmark was written against.
bench-check:
	cd bench && $(GO) vet . && $(GO) test .

# The size of the program: non-test Go source outside the benchmark module,
# in lines. CI prints it next to bench-check so every change shows it.
sloc:
	@git ls-files '*.go' | grep -v '^bench/' | grep -v '_test.go$$' | xargs cat | wc -l

# The QoE load-generation gate: replays the 1024-session virtual-time
# sweep across every netem profile and diffs the verdict table against
# the checked-in baseline (internal/trafficgen/testdata/qoe_baseline.txt).
# On a mismatch the got/want tables and a pair of small .rkcp captures
# land in $(QOE_DIR) for CI to upload. Regenerate the baseline after an
# intentional QoE change with `make qoe-update`.
QOE_DIR ?= qoe-artifacts
qoe:
	RETROLOCK_QOE_DIR=$(QOE_DIR) $(GO) test ./internal/trafficgen/ \
		-run 'TestQoESweep' -count 1 -v

qoe-update:
	$(GO) test ./internal/trafficgen/ -run 'TestQoESweepMatchesBaseline' -count 1 \
		-qoe.update -v

# Static analysis beyond go vet. Staticcheck is fetched on demand — CI
# runs this; locally it needs network the first time.
lint:
	$(GO) vet ./...
	$(GO) run honnef.co/go/tools/cmd/staticcheck@2024.1.1 ./...

# The full figure-reproduction benchmark suite.
bench-all:
	$(GO) test -run NONE -bench . -benchmem .
