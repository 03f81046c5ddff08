# Development targets. The repo is pure Go with no dependencies; every
# target is a thin wrapper so CI and humans run the same commands.

.PHONY: build test race race-regress cross vet lint bench bench-realm bench-coldstart coldstart-smoke sim verify ci fuzz cover

build:
	go build ./...

test:
	go test ./...

race:
	go test -race ./...

# The concurrency regressions (FileStore lost-update, segment-log crash
# recovery, sharded propagation, the KDC cluster, the KDC request
# pipeline entered at once from the UDP ring, the ring-full fallback and
# TCP goroutines over one replay cache, the replay cache itself entered
# concurrently, a Selector's idle sockets shared by concurrent
# exchanges) under the race
# detector with forced parallelism — GOMAXPROCS=4 surfaces the
# interleavings these tests exist for even on single-CPU boxes.
race-regress:
	GOMAXPROCS=4 go test -race -count=1 \
		-run 'TestFileStorePersistRace|TestSegment|TestSharded|TestShardCount|TestCluster|TestEpochChurnRace|TestSnapshotBaseStore|TestFlatKDB4Equivalence|TestHandleBatch|TestUDPRing|TestConcurrentClients|TestSelector|TestPooled' \
		./internal/kdb/ ./internal/kprop/ ./internal/kdc/
	GOMAXPROCS=4 go test -race -count=1 \
		-run 'TestReplay|TestConcurrentUse|TestSweep' \
		./internal/replay/

# Cross-compile for the other platforms the module builds on, so the
# build-tagged socket drain (internal/kdc/drain_*.go) and its fallback
# both keep compiling.
cross:
	GOOS=windows go build ./...
	GOOS=darwin go build ./...
	GOOS=freebsd go build ./...

# Cold-start budget gate: a 100k-principal, 8-shard realm must come up
# well under a second (the 1M realm benchmarks ~10x that headroom).
coldstart-smoke:
	KERB_COLDSTART_SMOKE=1 go test -count=1 -run TestColdStartSmoke -v ./internal/kdb/

vet:
	go vet ./...

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
ci: vet lint build race cover fuzz

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
