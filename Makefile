GO ?= go

.PHONY: all build test race vet check loc bench bench-smoke

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# check is the CI gate: gofmt (any file `gofmt -l` lists fails it), vet,
# build, the full test suite under the race detector (which runs every
# hqbench experiment once at its smoke scope, the soaks included:
# TestEveryExperimentRunsQuick), the hot-path benchmarks, ten
# seconds of fuzzing each on the frame decoder that feeds the verifier's drain,
# on the allocation policies against their sorted-slice reference, on the
# pointer table (and cfi's block operations) against a Go map and on the
# hmac sealer's run unseal against a loop of one-message calls,
# the quick end-to-end benchmark (all four workloads, every correctness
# check), and the line count. The one piece run without the race detector is
# the sweep's model-checker entry: it explores ~71k states with dsched
# handing control from one goroutine to the next, so the detector has little
# to watch and costs 8x (internal/verify's own tests do run under it). check
# leaves `git status` clean: nothing here writes outside .bench_build/ and
# bench/out/.
check: vet build
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt -l lists:"; echo "$$unformatted"; exit 1; fi
	$(GO) test -race -skip 'TestEveryExperimentRunsQuick/verify' ./...
	$(GO) test -run 'TestEveryExperimentRunsQuick/verify' ./internal/experiments
	$(MAKE) bench-smoke
	$(GO) test -run xxx -fuzz FuzzFrameDecoder -fuzztime 10s ./internal/ipc
	$(GO) test -run xxx -fuzz FuzzAllocPolicies -fuzztime 10s ./internal/policy
	$(GO) test -run xxx -fuzz FuzzPtrTable -fuzztime 10s ./internal/policy
	$(GO) test -run xxx -fuzz FuzzUnsealRun -fuzztime 10s ./internal/policy
	$(GO) run ./bench -quick
	$(MAKE) loc

# loc prints Table 6 (code and test lines per component) and, on the last
# line, the non-test Go lines outside bench/: the per-PR size trend ROADMAP
# "One of each" tracks (27 040 before the receive paths were merged, 25 979
# before the shard-queue hand-off went, 25 659 with the client's ring as its
# staging buffer, 25 697 with remote gates answered on the drain, 25 268
# with the JSONL trace ring and the latency sampler deleted, 25 265 with the
# pointer table's control bytes and tombstones gone, 25 148 with one
# admission and one finalization in the supervisor).
loc:
	@$(GO) run ./cmd/loccount

bench:
	$(GO) test -bench=. -benchmem ./...

# bench-smoke keeps the hot path honest in CI: a short run of the verifier
# throughput benchmarks (catching gross regressions and alloc creep via
# -benchmem) at -cpu 1,2 — a source is read and evaluated by one goroutine, so
# the replay rows should read alike on one processor and two, and the live
# ring's producer gets a processor of its own on the second — one pass of the
# full sealed chain over 266 k entries (the cache-resident benches cannot see
# a policy table that shifts or misses), one pass of the two allocation
# policies alone over ring_policy's allocation mix at its sizes (2048 live
# spans among some 2000 tombstones, cache-resident: it prices the interval
# search, which the full chain hides behind its pointer-table misses), one
# pass of hqd's sealed chain over the hot mix (window, two-lane unseal and op
# routing with every table in cache; -benchmem must read 0 allocs/op), the
# networked client's send path
# (sealed stream to an in-process daemon over a Unix socket, with its
# zero-alloc test: Send encodes into the replay ring, a burst is one writev
# from it, the daemon acks once per read) and its gated round trip (16 sealed
# sends, the System-Call message and the gate against hqd's chain, answered
# by the daemon's drain; with its zero-alloc test) — both at -cpu 1,2 because
# the second processor is the daemon's — and the daemon's cursor decoder below
# the session (one client burst of staging, 256 frames a call, 0 allocs/op).
bench-smoke:
	$(GO) test -run xxx -bench 'BenchmarkVerifierThroughput' -benchtime 200ms -benchmem -cpu 1,2 .
	$(GO) test -run xxx -bench 'BenchmarkPolicyChainLargeState' -benchtime 1x .
	$(GO) test -run xxx -bench 'BenchmarkAllocPolicies' -benchtime 1x -benchmem ./internal/policy
	$(GO) test -run xxx -bench 'BenchmarkDeliverHotChain' -benchtime 1x -benchmem .
	$(GO) test -run 'TestClientSendSteadyStateZeroAlloc|TestGateRoundTripAllocatesNothing' -bench 'BenchmarkClientSend|BenchmarkGateRoundTrip' -benchtime 200ms -benchmem -cpu 1,2 ./internal/hqnet
	$(GO) test -run xxx -bench 'BenchmarkFrameDecoder' -benchtime 200ms -benchmem ./internal/ipc
