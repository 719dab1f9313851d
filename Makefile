GO ?= go
GOFMT ?= gofmt

.PHONY: all build test vet lint race fuzz-smoke serve-smoke scrub-smoke cover check crash crash-full bench-check ledger clean

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Durability-layer errcheck: unchecked Sync()/Close() results in the WAL,
# storage, persist, and scrub packages are build failures — a silently
# ignored fsync error is exactly how acknowledged data gets lost. Deliberate
# discards carry a //nolint:synccheck annotation at the call site. Every Go
# file, bench/ included, must be gofmt-clean; the check lists offenders and
# rewrites nothing. Background timing goes through the one scheduler
# (internal/sched), so a private ticker, timer, AfterFunc or time.Tick in
# any non-test Go file outside bench/ and internal/sched fails the lint.
SCHED_ONLY = find . -name '*.go' ! -name '*_test.go' ! -path './.*' ! -path './bench/*' ! -path './internal/sched/*'

lint:
	$(GO) run ./internal/tools/synccheck -root .
	@out=$$($(GOFMT) -l .); if [ -n "$$out" ]; then echo "gofmt -l: files need formatting:"; echo "$$out"; exit 1; fi
	@out=$$($(SCHED_ONLY) -exec grep -HnE 'time\.(NewTicker|NewTimer|AfterFunc|Tick\()' {} +); \
	if [ -n "$$out" ]; then echo "background timing must go through internal/sched:"; echo "$$out"; exit 1; fi

# Race-detector run over the packages with concurrency-sensitive code
# (parallel scan, exchange operators, tuple mover, storage fault injection,
# chaos tests, the transaction manager and its multi-session tests in the
# root package) plus the planner/expression/colstore packages the exchange
# layer leans on, the serving layer (wire handlers, session reaper,
# admission broker, tenant handle cache), and the background scheduler.
race:
	$(GO) test -race . ./internal/exec/batchexec ./internal/table ./internal/storage ./internal/delta ./internal/sql ./internal/plan ./internal/expr ./internal/colstore ./internal/txn ./internal/wal ./internal/server ./internal/server/broker ./internal/server/tenant ./internal/load ./internal/degrade ./internal/scrub ./internal/sched

# Short seeded-corpus fuzz run over the encoding round-trip/robustness targets
# (bitpack, RLE, dictionary), the join bitmap filter's exact layout and its
# code-space test, the WAL record codec, the bulk-load input
# decoders (CSV, length-prefixed binary), and the spill file round trip of
# the batch hash operators (typed batches out, typed batches back, and no
# panic on cut or garbled bytes). Seconds per target: enough to catch
# regressions in the untrusted-input bounds checks without stalling CI.
fuzz-smoke:
	$(GO) test ./internal/encoding -run='^$$' -fuzz=FuzzBitpackRoundtrip -fuzztime=5s
	$(GO) test ./internal/encoding -run='^$$' -fuzz=FuzzRLERoundtrip -fuzztime=5s
	$(GO) test ./internal/encoding -run='^$$' -fuzz=FuzzDictRoundtrip -fuzztime=5s
	$(GO) test ./internal/bloom -run='^$$' -fuzz=FuzzBitmapFilter -fuzztime=5s
	$(GO) test ./internal/wal -run='^$$' -fuzz=FuzzWALRecord -fuzztime=5s
	$(GO) test ./internal/load -run='^$$' -fuzz=FuzzCSVLoad -fuzztime=5s
	$(GO) test ./internal/load -run='^$$' -fuzz=FuzzBinaryLoad -fuzztime=5s
	$(GO) test ./internal/exec/batchexec -run='^$$' -fuzz=FuzzSpillRoundtrip -fuzztime=5s
	$(GO) test ./internal/sql -run='^$$' -fuzz=FuzzOptimizerParity -fuzztime=5s

# Serving acceptance: build the real apollod binary, start it with two
# tenants sharing one process and one memory budget, and drive the HTTP API
# end to end (streaming, cross-request transactions, admission shedding with
# typed 429s, per-tenant /metrics counters).
serve-smoke:
	$(GO) test -run='^TestServeSmoke$$' -count=1 -v ./internal/server

# Integrity acceptance: rot every at-rest blob copy, run a scrub pass under
# concurrent queries (100% detection, zero failed reads), then prove the
# unrecoverable case quarantines with per-table health attribution; plus the
# paced-sweep gates (pacing holds, clean data reports clean).
scrub-smoke:
	$(GO) test -run='^(TestScrubSmoke|TestScrubSweep)$$' -count=1 -v .

# Crash-injection matrix: one table of workloads (crash_matrix_test.go), each
# killed in a child process at WAL byte offsets and recovered under its own
# oracle. script: the single-writer trickle script recovers an exact
# committed prefix (zero acknowledged loss at fsync=always), plus one point
# that tears the checkpoint-end record. bulk: db.Load kills inside atomic
# row-group publishes recover whole groups or none. multi: concurrent
# transactional sessions recover atomically (no torn transactions, rollbacks
# never resurface). enospc: kills across the disk-full degrade->recover cycle
# lose no acked write. poison: a failed fsync stays fail-stop until restart.
# Per fsync policy: 8/8/4/4/0 points by default; `make crash-full` runs
# 64/24/16/16/0.
CRASH_TESTS = TestCrashMatrix|TestRecoveryRefusesMidLogCorruption

crash:
	$(GO) test -run='$(CRASH_TESTS)' -count=1 .

crash-full:
	APOLLO_CRASH_FULL=1 $(GO) test -run='$(CRASH_TESTS)' -count=1 -v .

# Per-package statement coverage. internal/metrics (the observability core)
# and internal/stats (the estimators feeding cost-based plan choices) have a
# hard 70% floor, and internal/degrade (the one write gate every write
# entry point passes), internal/sched (the one background scheduler) and
# internal/exec/batchexec (the batch operators and their key kernel) an 80%
# floor; every other package is report-only for now.
cover:
	@out=$$($(GO) test -cover ./...) || { echo "$$out"; exit 1; }; \
	echo "$$out"; \
	echo "$$out" | awk 'BEGIN { floors["apollo/internal/metrics"] = 70; floors["apollo/internal/stats"] = 70; floors["apollo/internal/degrade"] = 80; floors["apollo/internal/sched"] = 80; floors["apollo/internal/exec/batchexec"] = 80 } \
		$$1 == "ok" && ($$2 in floors) { \
			for (i = 1; i <= NF; i++) if ($$i ~ /%$$/) pct[$$2] = substr($$i, 1, length($$i)-1) + 0; \
			seen[$$2] = 1 \
		} \
		END { \
			bad = 0; \
			for (p in floors) { \
				if (!seen[p]) { printf "cover: no coverage reported for %s\n", p; bad = 1; continue } \
				printf "coverage gate: %s %.1f%% (floor %d%%)\n", p, pct[p], floors[p]; \
				if (pct[p] < floors[p]) bad = 1 \
			} \
			exit bad \
		}'

# The benchmark (bench/) is a nested module, so `go build/test ./...` at the
# root never compiles it, yet it calls internal packages and metric names by
# name (encoding.PackSlice, Packed.DecodeAll, RLEEncode, RLE.DecodeAll, ...).
# Vet and test it so a rename breaks the build here, not the next benchmark.
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# Work ledger: per-statement heap allocations and scan, planner and spill
# counters of the 13 SSB queries, a DISTINCT aggregate, a hash join and a
# hash aggregation that spill under a 4 KiB grant, three join-key shapes
# and a few delta-store statements, pinned in
# internal/sql/testdata/ledger.golden (TestWorkLedger, part of `make test`).
# Regenerate after an intentional change and quote the moved lines.
ledger:
	$(GO) test ./internal/sql -run='^TestWorkLedger$$' -count=1 -update

# Full CI gate: build, vet, durability lint, tests (incl. golden plans,
# metrics invariants and the bulk-load parity sweep), benchmark build and
# unit tests, race detector, fuzz smoke, serving smoke, integrity scrub
# smoke, crash matrix (incl. degrade/poison), coverage floor.
check: build vet lint test bench-check race fuzz-smoke serve-smoke scrub-smoke crash cover

clean:
	$(GO) clean -testcache
