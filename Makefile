GO ?= go

.PHONY: all build test race vet check loc bench bench-smoke throughput scaling stats multiproc multiproc-smoke obs-smoke chaos-smoke chaos latency verify-smoke verify policy-smoke policies forensics-smoke forensics hqd-smoke hqd

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# check is the CI gate: vet, build, the full test suite under the race
# detector, a smoke run of the telemetry experiment end-to-end, the
# multi-process supervisor smoke (racy concurrent launches + one small
# multiproc scaling measurement), the per-subsystem smokes, ten seconds of
# fuzzing on the frame decoder that feeds the verifier's arena, the quick
# end-to-end benchmark (all four workloads, every correctness check), and
# the non-test line count. It leaves `git status` clean.
check:
	$(GO) vet ./...
	$(GO) build ./...
	$(GO) test -race ./...
	$(GO) run ./cmd/hqbench -exp stats -msgs 50000 -procs 4 >/dev/null
	$(MAKE) multiproc-smoke
	$(MAKE) obs-smoke
	$(MAKE) chaos-smoke
	$(MAKE) policy-smoke
	$(MAKE) forensics-smoke
	$(MAKE) verify-smoke
	$(MAKE) hqd-smoke
	$(MAKE) bench-smoke
	$(GO) test -run xxx -fuzz FuzzFrameDecoder -fuzztime 10s ./internal/ipc
	$(GO) run ./bench -quick
	$(MAKE) loc

# loc prints the non-test Go lines outside bench/ — the per-PR size trend
# ROADMAP "One of each" tracks (27 040 before the receive paths were merged).
loc:
	@printf 'non-test Go lines outside bench/: '
	@git ls-files '*.go' | grep -v _test.go | grep -v '^bench/' | xargs cat | wc -l

# multiproc-smoke re-runs the concurrent-supervisor tests under the race
# detector and takes one small-N multiproc scaling measurement.
multiproc-smoke:
	$(GO) test -race -count=1 -run 'System' ./internal/supervisor .
	$(GO) run ./cmd/hqbench -exp multiproc -msgs 200000 >/dev/null

# obs-smoke launches a resident System with the observability endpoint on a
# loopback port, runs monitored programs through it, and scrapes /metrics
# and /healthz over real HTTP, failing on an empty or incomplete exposition.
obs-smoke:
	$(GO) run ./cmd/hqbench -exp obs

# chaos-smoke is a short seeded fault-injection soak under the race detector:
# the injector unit tests, the failure-containment tests across ipc, verifier,
# kernel and supervisor, and the full Chaos experiment (soak + determinism
# replay) at a fixed seed. Deterministic by construction — safe for CI.
chaos-smoke:
	$(GO) test -race -count=1 ./internal/chaos
	$(GO) test -race -count=1 -run 'Chaos|Panic|Degraded|Wedged|Seq|Transient|Retry|Frame|Garbage|SpinWait' \
		./internal/ipc ./internal/verifier ./internal/kernel ./internal/supervisor ./internal/experiments

# policy-smoke exercises the pluggable policy engine: the registry/conformance
# and per-policy unit tests under the race detector, then the full detection
# matrix (every registered policy against every injected fault class, with
# kill attribution checked) plus a quick overhead sweep via hqbench.
policy-smoke:
	$(GO) test -race -count=1 -run 'Conformance|Registry|Temporal|Hmac|HMAC|Seal|Policy' \
		./internal/policy ./internal/ipc ./internal/verifier ./internal/supervisor .
	$(GO) run ./cmd/hqbench -exp policies -quick >/dev/null

# policies prints the full detection matrix and per-policy overhead table and
# persists it as JSON alongside the other committed benchmark artifacts.
policies:
	$(GO) run ./cmd/hqbench -exp policies -out BENCH_policies.json

# forensics-smoke exercises the flight-recorder layer under the race detector:
# the recorder/forensics unit tests, then the quick acceptance experiment
# (kill attribution for every fault class, recorder overhead, zero-alloc
# stamp) built with -race as well. Deterministic attribution — safe for CI.
forensics-smoke:
	$(GO) test -race -count=1 -run 'Flight|Forensic|Violations' \
		./internal/telemetry ./internal/verifier ./internal/supervisor ./internal/obs
	$(GO) run -race ./cmd/hqbench -exp forensics -quick >/dev/null

# forensics prints the full attribution matrix and overhead measurement and
# persists the JSON artifact.
forensics:
	$(GO) run ./cmd/hqbench -exp forensics -out BENCH_forensics.json

# verify-smoke model-checks the gate protocol at the 2-proc x 2-shard scope:
# exhaustive exploration must be clean AND the checker must catch each
# reverted fix (revert knobs) with a minimal replayable schedule. Seconds,
# deterministic — safe for CI.
verify-smoke:
	$(GO) test -race -count=1 -short ./internal/verify ./internal/dsched
	$(GO) run ./cmd/hqbench -exp verify -quick

# verify runs the full exploration including the 3-process deep scope
# (~550k states; takes minutes).
verify:
	$(GO) run ./cmd/hqbench -exp verify

# hqd-smoke exercises the networked attestation plane under the race
# detector: the session/lease/resume unit tests, the socketpair framing and
# connection-fault tests, then the quick hqd soak — a daemon+client round
# trip over TCP and Unix sockets with chaos conn drops (mid-frame and at
# frame boundaries), a lease-expiry kill, and the handshake-abuse battery.
# Deterministic seed — safe for CI.
hqd-smoke:
	$(GO) test -race -count=1 ./internal/hqnet
	$(GO) test -race -count=1 -run 'Conn|Socketpair|Frame' ./internal/chaos
	$(GO) run -race ./cmd/hqbench -exp hqd -quick >/dev/null

# hqd runs the full networked soak and persists the JSON artifact.
hqd:
	$(GO) run ./cmd/hqbench -exp hqd -out BENCH_hqd.json

# chaos runs the full soak with report output (override: make chaos SEED=99).
SEED ?= 0xda0517
chaos:
	$(GO) run ./cmd/hqbench -exp chaos -seed $(SEED)

latency:
	$(GO) run ./cmd/hqbench -exp latency

stats:
	$(GO) run ./cmd/hqbench -exp stats

bench:
	$(GO) test -bench=. -benchmem ./...

# bench-smoke keeps the hot path honest in CI: a short run of the verifier
# throughput benchmarks (catching gross regressions and alloc creep via
# -benchmem), the networked client's send path (sealed stream to an
# in-process daemon over a Unix socket, with its zero-alloc test) plus a
# quick shard-scaling ladder. It writes no file: the committed
# BENCH_scaling.json is the full run and only `make scaling` replaces it.
bench-smoke:
	$(GO) test -run xxx -bench 'BenchmarkVerifierThroughput' -benchtime 200ms -benchmem .
	$(GO) test -run 'TestClientSendSteadyStateZeroAlloc' -bench 'BenchmarkClientSend' -benchtime 200ms -benchmem ./internal/hqnet
	$(GO) run ./cmd/hqbench -exp scaling -quick >/dev/null

throughput:
	$(GO) run ./cmd/hqbench -exp throughput

scaling:
	$(GO) run ./cmd/hqbench -exp scaling -out BENCH_scaling.json

multiproc:
	$(GO) run ./cmd/hqbench -exp multiproc
