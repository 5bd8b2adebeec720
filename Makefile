GO ?= go

.PHONY: all build test test-short race vet check loc bench bench-smoke verify-cover

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# test-short is the quick tier: -short skips the enforcement soaks, the
# hqbench sweep, the SPEC-like figure runs and the full 954-variant RIPE
# battery, which plain `go test ./...` (and check, under -race) still runs.
test-short:
	$(GO) test -short ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# check is the CI gate: gofmt (any file `gofmt -l` lists fails it), vet,
# build, the portable build (vet of the packages with an amd64 kernel as
# arm64, and a 386 build of everything: the SipHash kernel's portable body
# must keep compiling without any tag), the full test suite under the race detector (which runs every
# hqbench experiment once at its smoke scope, the soaks included:
# TestEveryExperimentRunsQuick), twenty raced runs each of the ring's
# park/wake and fenced-point tests and of the hqnet client's goodbye resend
# and token tests (a resend racing recvLoop's reconnect must fail here, not
# flake later), twenty runs of the ring's tests without the race detector
# (only that build publishes the ring's head with a plain store),
# the hot-path benchmarks, ten
# seconds of fuzzing each on the frame decoder that feeds the verifier's drain,
# on the allocation policies against their sorted-slice reference, on the
# pointer table (and cfi's block operations) against a Go map, on the
# hmac sealer's run unseal against a loop of one-message calls, on every
# policy's HandleRun against a loop of one-message Handle calls, on the
# model checker's Replay over arbitrary schedules and on the hqnet daemon's
# handshake and session filter over arbitrary control-frame sequences,
# the quick end-to-end benchmark (all four workloads, every correctness
# check), and the line count. The one piece run without the race detector is
# the sweep's model-checker entry: it explores ~103k states with dsched
# handing control from one goroutine to the next, so the detector has little
# to watch and costs 8x (internal/verify's own tests do run under it). check
# also fails when a non-test file outside internal/dsched, internal/kernel and
# internal/verify names the kernel's revert hooks (the pre-fix races the
# checker's detectors reopen), fails when a non-test file under
# internal/verifier, internal/kernel or internal/supervisor calls time.Sleep
# or time.After (the enforcement path never sleeps: the kernel's epoch wait
# is a dsched.AfterFunc timer and a condition variable, and a drain ends at
# its first receive error instead of backing off), and prints the checker's
# coverage of the trusted core (verify-cover). check leaves `git status` clean: nothing here
# writes outside .bench_build/ and bench/out/.
check: vet build
	GOARCH=arm64 $(GO) vet ./internal/ipc ./internal/policy ./internal/hqnet
	GOARCH=386 $(GO) build ./...
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt -l lists:"; echo "$$unformatted"; exit 1; fi
	@named=$$(grep -rlE --include='*.go' --exclude='*_test.go' --exclude-dir=.bench_build \
		'Revert(LateNotify|EpochTimer)|Reverted\(|Unsafe(LateNotify|EpochTimer)' . | \
		grep -vE '^\./internal/(dsched|kernel|verify)/'); if [ -n "$$named" ]; then \
		echo "revert hooks named outside internal/{dsched,kernel,verify}:"; echo "$$named"; exit 1; fi
	@slept=$$(grep -rnE --include='*.go' --exclude='*_test.go' 'time\.(Sleep|After)\(' \
		internal/verifier internal/kernel internal/supervisor); if [ -n "$$slept" ]; then \
		echo "time.Sleep or time.After on the enforcement path:"; echo "$$slept"; exit 1; fi
	$(GO) test -race -skip 'TestEveryExperimentRunsQuick/verify' ./...
	$(GO) test -race -count=20 -run 'TestSharedRingParkWake|TestSharedRingCloseWakes|TestSharedRingFencedPoints' ./internal/ipc
	$(GO) test -count=20 -run 'TestSharedRingParkWake|TestSharedRingCloseWakes|TestSharedRingFencedPoints' ./internal/ipc
	$(GO) test -race -count=20 -run 'TestCloseResendsLostGoodbye|TestResumeToken' ./internal/hqnet
	$(GO) test -run 'TestEveryExperimentRunsQuick/verify' ./internal/experiments
	$(MAKE) bench-smoke
	$(GO) test -run xxx -fuzz FuzzFrameDecoder -fuzztime 10s ./internal/ipc
	$(GO) test -run xxx -fuzz FuzzAllocPolicies -fuzztime 10s ./internal/policy
	$(GO) test -run xxx -fuzz FuzzPtrTable -fuzztime 10s ./internal/policy
	$(GO) test -run xxx -fuzz FuzzUnsealRun -fuzztime 10s ./internal/policy
	$(GO) test -run xxx -fuzz FuzzHandleRun -fuzztime 10s ./internal/policy
	$(GO) test -run xxx -fuzz FuzzReplay -fuzztime 10s ./internal/verify
	$(GO) test -run xxx -fuzz FuzzControlFrames -fuzztime 10s ./internal/hqnet
	$(GO) run ./bench -quick
	$(MAKE) verify-cover
	$(MAKE) loc

# verify-cover prints the statement coverage internal/verify's own tests
# reach in the trusted core the model checker drives, one line per package.
verify-cover:
	@mkdir -p .bench_build
	@$(GO) test -count=1 -coverpkg=./internal/kernel,./internal/verifier,./internal/supervisor \
		-coverprofile=.bench_build/verify.cover ./internal/verify >/dev/null
	@awk -F'[: ]' 'NR > 1 { pkg = $$1; sub(/\/[^\/]*$$/, "", pkg); all[pkg] += $$3; \
		if ($$4 > 0) hit[pkg] += $$3 } END { for (p in all) printf "%-28s %5.1f%%\n", p, 100 * hit[p] / all[p] }' \
		.bench_build/verify.cover | sort

# loc prints Table 6 (code and test lines per component) and, on the last
# line, the non-test Go lines outside bench/: the per-PR size trend ROADMAP
# "One of each" tracks (27 040 before the receive paths were merged, 25 979
# before the shard-queue hand-off went, 25 659 with the client's ring as its
# staging buffer, 25 697 with remote gates answered on the drain, 25 268
# with the JSONL trace ring and the latency sampler deleted, 25 265 with the
# pointer table's control bytes and tombstones gone, 25 148 with one
# admission and one finalization in the supervisor, 25 141 with the model
# checker's world a supervisor.System, 25 294 with the 8-lane SipHash
# kernel's dispatch and portable body and the hqnet client sealing at flush,
# 25 343 with the ring's sleep fallback replaced by park/wake, 25 072 with
# the four enforcement soaks on one driver and the obs smoke and hqd lease
# phases deleted, 25 190 with policies taking a run of messages per call,
# 25 246 with the ring's one-store send, 24 823 with the chaos injector's
# faults in tables, the hqd abuse battery deleted and one soak report,
# 24 675 with every channel error terminal and the retry ladders gone;
# the kernel's assembly is not counted).
loc:
	@$(GO) run ./cmd/loccount

bench:
	$(GO) test -bench=. -benchmem ./...

# bench-smoke keeps the hot path honest in CI: a short run of the verifier
# throughput benchmarks (catching gross regressions and alloc creep via
# -benchmem) at -cpu 1,2 — a source is read and evaluated by one goroutine, so
# the replay rows should read alike on one processor and two, and the live
# ring's producer gets a processor of its own on the second — the local
# gate under sparse traffic (16 counter messages, the System-Call message and
# the gate after an idle gap past the ring's spin budget, so the drain is
# parked when the request arrives; gate p50 and p99 in µs), one pass of the
# full sealed chain over 266 k entries (the cache-resident benches cannot see
# a policy table that shifts or misses), one pass of the two allocation
# policies alone over ring_policy's allocation mix at its sizes (2048 live
# spans among some 2000 tombstones, cache-resident: it prices the interval
# search, which the full chain hides behind its pointer-table misses), one
# pass each of ring_stream's chain and hqd's sealed chain over the hot mix
# (window, runs and, sealed, the 8-lane unseal with every table in cache;
# -benchmem must read 0 allocs/op), the networked client's send path
# (sealed stream to an in-process daemon over a Unix socket, with its
# zero-alloc test: Send encodes into the replay ring, a burst is sealed in
# place and is one writev from it, the daemon acks once per read) and its gated round trip (16 sealed
# sends, the System-Call message and the gate against hqd's chain, answered
# by the daemon's drain; with its zero-alloc test) — both at -cpu 1,2 because
# the second processor is the daemon's — and the daemon's cursor decoder below
# the session (one client burst of staging, 256 frames a call, 0 allocs/op).
bench-smoke:
	$(GO) test -run xxx -bench 'BenchmarkVerifierThroughput' -benchtime 200ms -benchmem -cpu 1,2 .
	$(GO) test -run xxx -bench 'BenchmarkRingGateSparse' -benchtime 400x -cpu 1,2 .
	$(GO) test -run xxx -bench 'BenchmarkPolicyChainLargeState' -benchtime 1x .
	$(GO) test -run xxx -bench 'BenchmarkAllocPolicies' -benchtime 1x -benchmem ./internal/policy
	$(GO) test -run xxx -bench 'BenchmarkDeliverHotChain' -benchtime 1x -benchmem .
	$(GO) test -run 'TestClientSendSteadyStateZeroAlloc|TestGateRoundTripAllocatesNothing' -bench 'BenchmarkClientSend|BenchmarkGateRoundTrip' -benchtime 200ms -benchmem -cpu 1,2 ./internal/hqnet
	$(GO) test -run xxx -bench 'BenchmarkFrameDecoder' -benchtime 200ms -benchmem ./internal/ipc
