GO ?= go

.PHONY: verify verify-race verify-sched chaos relay-soak fuzz bench-hotpath bench-check bench-smoke deadcode runcensus qoe qoe-update paper paper-update lint sloc

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
# packages built on the clock 20 times over and under the race detector.
# simnet takes no locks: a network and its endpoints may be touched only by
# the actor holding the baton, by a clock event, or while the world is idle,
# and the baton hand-off is their only ordering. So the race detector checks
# that ownership rule in simnet's and transport's own tests and in every
# harness, chaos and trafficgen world, and then, next line, in the relay's
# virtual worlds (the hosting soak at 1000 sessions, the alert-timeline
# soak and the virtual-versus-real front comparison), which must stop their
# relay and fleet loops from inside the world. Then the event-driven wait's differential test (each
# configuration run as built and with its conns forced onto the polling
# path) 20 times under the race detector and 20 times at one proc. Then the
# relay's real-clock tests 20 times under the race detector: several
# goroutines feed and run each shard. That line also carries the capture
# recorder's shared-tap proof (TestRealModeSharedTapUnderLoad: two readers'
# goroutines recording into one bounded tap). Last, the VM and the packages
# whose goldens pin its hashes on a 32-bit word size, where the compiler
# lowers the VM's 64-bit page-bitmap masks and digest arithmetic to 32-bit
# instructions.
SCHED_PKGS = ./internal/vclock/ ./internal/simnet/ ./internal/transport/ ./internal/harness/ ./internal/chaos/ ./internal/trafficgen/
WORD_PKGS = ./internal/vm ./internal/rom/games ./internal/core ./internal/harness ./internal/chaos ./internal/container ./internal/capture
verify-sched:
	GOMAXPROCS=1 $(GO) test -count=1 ./...
	GOMAXPROCS=2 $(GO) test -count=1 ./...
	GOMAXPROCS=4 $(GO) test -count=1 ./...
	$(GO) test -count=20 $(SCHED_PKGS)
	$(GO) test -race -count=1 $(SCHED_PKGS)
	$(GO) test -race -count=1 -run 'Soak|FrontsAgree|Virtual|AlertTimeline' ./internal/relay/ -relay.sessions 1000
	$(GO) test -race -count=20 -run 'EventWait' ./internal/harness/
	GOMAXPROCS=1 $(GO) test -count=20 -run 'EventWait' ./internal/harness/
	$(GO) test -race -count=20 -run 'UDP|RealMode|FrontsAgree|Close' ./internal/relay/
	GOARCH=386 $(GO) test -count=1 $(WORD_PKGS)

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
	RETROLOCK_RELAY_CAPTURE_DIR=$(abspath $(RELAY_CAPTURE_DIR)) \
		$(GO) test ./internal/relay/ -run 'TestRelaySoak' -count 1 \
		-relay.sessions $(RELAY_SESSIONS) -v

# Wire-format and toolchain fuzzers (coverage-guided; seeds always run
# under `make verify`). TestMakeFuzzRunsEveryFuzzer (repo root) fails when
# a Fuzz function in the tree has no line here.
FUZZTIME ?= 30s
fuzz:
	$(GO) test ./internal/lobby/ -fuzz FuzzLobbyParse -fuzztime $(FUZZTIME)
	$(GO) test ./internal/core/ -fuzz FuzzDecodeSync -fuzztime $(FUZZTIME)
	$(GO) test ./internal/core/ -fuzz FuzzDecodeSnapChunk -fuzztime $(FUZZTIME)
	$(GO) test ./internal/core/ -fuzz FuzzDecodeHash -fuzztime $(FUZZTIME)
	$(GO) test ./internal/core/ -fuzz FuzzParseJoin -fuzztime $(FUZZTIME)
	$(GO) test ./internal/timeserver/ -fuzz FuzzDecodeReport -fuzztime $(FUZZTIME)
	$(GO) test ./internal/vm/ -fuzz FuzzDeltaRoundTrip -fuzztime $(FUZZTIME)
	$(GO) test ./internal/vm/ -fuzz FuzzApplyDeltaNeverPanics -fuzztime $(FUZZTIME)
	$(GO) test ./internal/container/ -fuzz FuzzContainer -fuzztime $(FUZZTIME)
	$(GO) test ./internal/rom/ -fuzz FuzzDecodeROM -fuzztime $(FUZZTIME)
	$(GO) test ./internal/replay/ -fuzz FuzzDecodeLog -fuzztime $(FUZZTIME)
	$(GO) test ./internal/rom/games/ -fuzz FuzzAssemble -fuzztime $(FUZZTIME)
	$(GO) test ./internal/flight/ -fuzz FuzzDecodeBundle -fuzztime $(FUZZTIME)
	$(GO) test ./internal/span/ -fuzz FuzzDecodeSpan -fuzztime $(FUZZTIME)
	$(GO) test ./internal/capture/ -fuzz FuzzDecodeCapture -fuzztime $(FUZZTIME)
	$(GO) test ./internal/relay/ -run NONE -fuzz FuzzRelayHeader -fuzztime $(FUZZTIME)
	$(GO) test ./cmd/retrotop/ -fuzz FuzzParseMetrics -fuzztime $(FUZZTIME)

# The 0-allocs/op gate over the HOTPATH_BENCHMARKS benchmarks at the repo
# root: the sync hot path (plain, traced, span-journaled, flight-recorded,
# capture-tapped), the never-waiting SyncInput over simnet, the incremental
# digest, the delta savestate, the relay packet path (Route and Shard.Step
# in five configurations, and a batch round trip through two loopback
# UDPFronts, the recvmmsg/sendmmsg socket layer under them), the history
# retention tick and the ARQ baseline's poll and send-and-ack paths. It
# fails when any of them allocates, and when fewer than HOTPATH_BENCHMARKS
# report, so a gated benchmark cannot vanish unnoticed. Each one also has a
# tier-1 testing.AllocsPerRun twin. ns/op is printed, not gated: the
# performance record is bench/ (BENCHMARK.json), compared in same-host pairs.
HOTPATH_BENCHMARKS = 18
bench-hotpath:
	$(GO) test -run NONE -bench . -benchmem . > bench.out || { cat bench.out; exit 1; }
	@cat bench.out
	@n=$$(grep -c '^Benchmark' bench.out); if [ "$$n" -lt $(HOTPATH_BENCHMARKS) ]; then \
		echo "bench-hotpath: $$n benchmark results, want $(HOTPATH_BENCHMARKS)"; exit 1; fi
	@if grep '^Benchmark' bench.out | grep -v ' 0 allocs/op'; then \
		echo "bench-hotpath: the benchmarks above allocate"; exit 1; fi

# The benchmark module (bench/, see BENCHMARK.json) compiles against
# internal/... through a replace directive and the root build does not
# include it, so this is what notices a refactor breaking the API surface
# the benchmark was written against.
bench-check:
	cd bench && $(GO) vet . && $(GO) test .

# One short run of every BENCHMARK.json workload, untraced and traced, the
# way the benchmark runs them (bash bench/run.sh). bench-check does not run
# the workloads; this does, including the traced relay_sim_fleet run, the
# only one that probes a relay built from trafficgen's relay.Config and runs
# trafficgen.Run twice in one process. It fails on a non-zero exit and on a
# last line that is not a correct run with no failed operation. Each run's
# stdout and stderr are left in $(BENCH_SMOKE_DIR). Three seconds, not one:
# in a one-second run each of relay_udp_telemetry's three relay children
# stops before the fleet's first one-second tick, and the run counts the
# untracked sessions as failed operations.
BENCH_WORKLOADS = lockstep_clean lockstep_lossy relay_udp_bare relay_udp_telemetry relay_sim_fleet
BENCH_SMOKE_SECONDS = 3
BENCH_SMOKE_DIR ?= .bench_build/smoke
bench-smoke:
	mkdir -p $(BENCH_SMOKE_DIR)
	@fail=0; for w in $(BENCH_WORKLOADS); do for t in 0 1; do \
		out=$(BENCH_SMOKE_DIR)/$$w-trace$$t; \
		if ! bash bench/run.sh --workload $$w --seed 7 --seconds $(BENCH_SMOKE_SECONDS) --trace $$t > $$out.json 2> $$out.err; then \
			echo "bench-smoke: $$w --trace $$t exited non-zero:"; tail -n 20 $$out.err; fail=1; continue; \
		fi; \
		last=$$(tail -n 1 $$out.json); \
		case "$$last" in \
		'{"correct":true'*'"failed":0'[,}]*) echo "bench-smoke: $$w --trace $$t ok";; \
		*) echo "bench-smoke: $$w --trace $$t: last line is not a correct run with 0 failed:"; \
			echo "$$last" | cut -c1-300; fail=1;; \
		esac; \
	done; done; exit $$fail

# The linker census: the shipped binaries (cmd/*, examples/* and the bench/
# module) define the program. TestEveryInternalFuncIsLinked (repo root,
# build tag deadcode) builds them with inlining off, so every function they
# keep leaves a symbol, and fails when a function in internal/'s non-test
# files is in none of them and testdata/unlinked.txt does not name it with a
# reason, or when a line there names a function that is now linked or gone.
#
# The same target runs the write-only pass (TestNoFieldIsWriteOnly): it
# type-checks the module's non-test code with go/types and fails on an
# unexported field that the code assigns and never reads, unless
# testdata/writeonly.txt names it with a reason.
#
# And the knob census (TestEveryKnobIsTurned): with bench/ loaded as a
# second module, it fails on an exported field of an internal/ *Config,
# *Options, *Spec, *Params or *Model struct that no non-test code of the
# main module assigns outside the field's own package's withDefaults (a
# default nothing overrides is a constant; TestKnobCensusRule checks the
# rule on a synthetic module), and on a cmd/ flag that no command line in
# README.md, EXPERIMENTS.md, docs/, this Makefile, CI or the command's own
# tests passes, unless testdata/knobs.txt names it with a reason.
deadcode:
	$(GO) test -tags deadcode -run 'TestEveryInternalFuncIsLinked|TestNoFieldIsWriteOnly|TestEveryKnobIsTurned|TestKnobCensusRule' -count 1 -v .

# The run census: what the gates run. TestEveryInternalFuncRuns (repo root,
# build tag runcensus) collects coverage of internal/ from tier-1 (built
# with -coverpkg=./internal/...), from the command binaries the tests
# re-execute and from make paper's series (cmd/experiment built with
# -cover), merges it with go tool covdata, and fails on a function in
# internal/ of which no statement ran unless testdata/unrun.txt names it
# with a reason, or on a line there whose function now runs or is gone. It
# prints internal/'s statement coverage and fails if tier-1's falls below
# the floor in runcensus_test.go.
runcensus:
	$(GO) test -tags runcensus -run TestEveryInternalFuncRuns -count 1 -timeout 30m -v .

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
	RETROLOCK_QOE_DIR=$(abspath $(QOE_DIR)) $(GO) test ./internal/trafficgen/ \
		-run 'TestQoESweep' -count 1 -v

qoe-update:
	$(GO) test ./internal/trafficgen/ -run 'TestQoESweepMatchesBaseline' -count 1 \
		-qoe.update -v

# The paper's numbers: every cmd/experiment series, run at its defaults
# without charts, diffed byte for byte against testdata/paper/<series>.golden.
# Each series is its own process, so one series' output cannot depend on
# another having run first. Progress lines go to stderr and are not
# compared. The outputs are left in $(PAPER_DIR) for inspection.
# Regenerate the goldens after an intentional change with
# `make paper-update`, and say in the commit why each one moved.
PAPER_SERIES = figure1 figure2 threshold journey ablation-timer ablation-transport \
	ablation-rollback ablation-adaptivelag loss burstloss bandwidth multisite seeds \
	chaos qoeload
PAPER_DIR ?= .paper_build
paper:
	mkdir -p $(PAPER_DIR)
	$(GO) build -o $(PAPER_DIR)/experiment ./cmd/experiment
	@fail=0; for s in $(PAPER_SERIES); do \
		$(PAPER_DIR)/experiment -series $$s -chart=false > $(PAPER_DIR)/$$s.txt 2> $(PAPER_DIR)/$$s.err \
			|| { echo "paper: -series $$s failed:"; cat $(PAPER_DIR)/$$s.err; fail=1; continue; }; \
		diff -u testdata/paper/$$s.golden $(PAPER_DIR)/$$s.txt || fail=1; \
	done; \
	if [ $$fail -ne 0 ]; then echo "paper: output differs from testdata/paper"; exit 1; fi; \
	echo "paper: $(words $(PAPER_SERIES)) series match testdata/paper"

paper-update:
	mkdir -p $(PAPER_DIR) testdata/paper
	$(GO) build -o $(PAPER_DIR)/experiment ./cmd/experiment
	@for s in $(PAPER_SERIES); do \
		$(PAPER_DIR)/experiment -series $$s -chart=false > testdata/paper/$$s.golden 2> $(PAPER_DIR)/$$s.err \
			|| { echo "paper-update: -series $$s failed:"; cat $(PAPER_DIR)/$$s.err; exit 1; }; \
	done

# Static analysis beyond go vet, after a formatting gate: any source file
# gofmt would rewrite fails it. The census tests build only under their
# tags, so go vet ./... never compiles them; the two tagged vets do.
# Staticcheck is fetched on demand — CI runs this; locally it needs network
# the first time.
lint:
	test -z "$$(gofmt -l .)"
	$(GO) vet ./...
	$(GO) vet -tags deadcode .
	$(GO) vet -tags runcensus .
	$(GO) run honnef.co/go/tools/cmd/staticcheck@2024.1.1 ./...
