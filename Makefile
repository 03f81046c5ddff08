# Development targets. The repo is pure Go with no dependencies; every
# target is a thin wrapper so CI and humans run the same commands.

.PHONY: build test race race-regress flake-hunt cross vet fmt lint bench bench-realm bench-coldstart coldstart-smoke sim verify ci fuzz cover

build:
	go build ./...

test:
	go test ./...

race:
	go test -race ./...

# The concurrency regressions (a follower polling a segment directory
# while its writer appends, seals, compacts and replaces it, with readers
# on the follower's database; segment-log crash recovery, the sharded/flat
# database equivalence, the hot-key table under lookups racing password
# changes and a service key changed under in-flight HandleBatch requests,
# sharded propagation, the KDC cluster, the KDC request
# pipeline entered at once by the UDP burst workers and TCP goroutines
# over one replay cache, a duplicated TGS datagram split across
# workers, a TGS retransmit rebuilt from its replay memo, listener
# shutdown with workers parked, the replay cache itself entered
# concurrently, a Selector's idle sockets shared by concurrent
# exchanges, stale replies refused on kept and fresh sockets) under the
# race detector with forced
# parallelism — GOMAXPROCS=4 surfaces the interleavings these tests
# exist for even on single-CPU boxes, and starts four burst workers.
race-regress:
	GOMAXPROCS=4 go test -race -count=1 \
		-run 'TestFollower|TestSegment|TestSharded|TestShardCount|TestCluster|TestEpochChurnRace|TestSnapshotBaseStore|TestFlatKDB4Equivalence|TestHotKey|TestKeyCache|TestLookupResidency|TestMappedBase|TestHandleBatch|TestUDPBurst|TestConcurrentClients|TestSelector|TestPooled|TestTGSRetransmit' \
		./internal/kdb/ ./internal/kprop/ ./internal/kdc/
	GOMAXPROCS=4 go test -race -count=1 \
		-run 'TestReplay|TestConcurrentUse|TestSweep' \
		./internal/replay/

# Flake hunt: the test that flaked when a late reply reached a reused
# client port (TestUDPBurstConcurrentExchanges) and the stale-reply
# tests that pin its fix, and zephyr's slow-subscriber test and the
# test that a closed, undrained subscription releases its reader
# goroutine, 200 times under the race detector at GOMAXPROCS 1, 2 and
# 4. Kept out of ci until the two remaining flaky tests (ROADMAP item
# 10) are fixed and can join it.
flake-hunt:
	for p in 1 2 4; do \
		GOMAXPROCS=$$p go test -race -count=200 -timeout 30m \
			-run 'TestUDPBurstConcurrentExchanges|TestSelectorDiscardsStaleReply|TestPooledDiscardsStaleDuplicate|TestPooledUncleanExchangesClose' \
			./internal/kdc/ || exit 1; \
		GOMAXPROCS=$$p go test -race -count=200 -timeout 30m \
			-run 'TestSlowSubscriberDoesNotBlockDelivery|TestClosedUndrainedSubscriptionReleasesReader' \
			./internal/apps/zephyr/ || exit 1; \
	done

# Cross-compile for the other platforms the module builds on, so the
# build-tagged socket code and its fallbacks keep compiling: the KDC's
# UDP burst syscalls (internal/kdc/udpburst_*.go — recvmmsg/sendmmsg on
# linux/amd64 and linux/arm64, whose syscall numbers differ; a burst of
# one everywhere else, 32-bit linux included), and the database writer's
# directory lock (internal/kdb/lock_*.go — flock on linux and the BSDs,
# none elsewhere).
cross:
	GOOS=windows go build ./...
	GOOS=darwin go build ./...
	GOOS=freebsd go build ./...
	GOOS=linux GOARCH=386 go build ./...
	GOOS=linux GOARCH=arm64 go build ./...

# Cold-start budget gate: a 100k-principal, 8-shard realm must come up
# well under a second (the 1M realm benchmarks ~10x that headroom).
coldstart-smoke:
	KERB_COLDSTART_SMOKE=1 go test -count=1 -run TestColdStartSmoke -v ./internal/kdb/

vet:
	go vet ./...

# gofmt: every Go file must be gofmt-clean, except the analyzers'
# testdata fixtures, whose layout is part of what they test. A file
# gofmt cannot parse fails the check too (gofmt exits non-zero, and so
# does xargs), even one no build on this host compiles.
fmt:
	@out=$$(find . -name '*.go' -not -path '*/testdata/*' -not -path './.bench_build/*' | xargs gofmt -l) || \
		{ echo "gofmt failed on the files above"; exit 1; }; \
	if [ -n "$$out" ]; then echo "gofmt -l lists files that need formatting:"; echo "$$out"; exit 1; fi

# kervet: the repo's own static-analysis suite (cmd/kervet). Exits
# non-zero on any finding; see DESIGN.md section 10 for the analyzers.
lint:
	go run ./cmd/kervet ./...

# Full verification: tier-1 (build + tests) plus vet and the race suite.
verify:
	sh scripts/verify.sh

# Fuzz smoke: every native fuzz target for 10s (FUZZTIME overrides).
fuzz:
	sh scripts/fuzz.sh $(FUZZTIME)

# Coverage gate: internal/wire + internal/obs must stay >= 80%.
cover:
	sh scripts/cover.sh

# What CI runs (.github/workflows/ci.yml): static checks, the full
# suite under the race detector, the coverage gate, and the fuzz smoke
# pass. The fault-injection soaks honor `go test -short`, so a fast
# local pass is `go test -short ./...`.
ci: vet fmt lint build race cover fuzz

# Benchmarks: KDC hot path (BENCH_kdc.json) and database propagation
# (BENCH_kprop.json).
bench:
	sh scripts/bench.sh
	sh scripts/bench_kprop.sh

# Realm capacity analysis: calibrate per-exchange cost, binary-search
# the max sustainable QPS per topology, write BENCH_realm.json.
bench-realm:
	sh scripts/bench.sh bench-realm

# Cold-start benchmark (1M principals, mmapped KDB4 vs flat decode),
# merged into BENCH_kdc.json. KERB_COLDSTART_SCALE shrinks the realm.
bench-coldstart:
	sh scripts/bench.sh coldstart

# Simulator smoke (<30s): a scaled Athena day run twice, byte-identical
# runs required. CI runs this on every push.
sim:
	go run ./cmd/kersim -scenario athena-day -scale 0.1 -verify
