GO ?= go

.PHONY: check vet lint lintshort build test race bench benchcheck benchsmoke fmt fmtcheck crashmatrix crashshort failovershort fuzzshort size

# NPROC bounds go vet's package-level parallelism for the lint targets;
# override on boxes where the cgroup CPU limit is below nproc.
NPROC ?= $(shell nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)

# check is the full verification gate: formatting, vet, the seclint
# static-analysis suite (guardedby/verdictcheck/ctxio/gatecheck plus the
# taintflow/leakcheck dataflow analyzers — the security and durability
# invariants machine-checked), build, the test
# suite under the race detector (the resilience and caching layers are
# concurrent by design — a run without -race proves little), a
# one-iteration bench smoke so a broken benchmark cannot sit unnoticed
# until measurement time, benchcheck so a change that breaks the surface
# the repository benchmark compiles against is caught here and not when
# the benchmark runs, and the bounded crash matrix (crashshort) so a
# durability regression cannot land between full crashmatrix runs.
check: fmtcheck vet lint build race bench benchcheck crashshort failovershort fuzzshort

vet:
	$(GO) vet ./...

# lint builds the seclint vettool (cmd/seclint) and runs its analyzer
# suite over the whole tree via go vet's -vettool protocol, fanning
# package units out over NPROC workers. The tree must stay finding-free;
# see internal/analysis/README.md for the annotation grammar when a
# finding is a false positive.
lint:
	$(GO) build -o bin/seclint ./cmd/seclint
	$(GO) vet -vettool=$(CURDIR)/bin/seclint -p $(NPROC) ./...

# lintshort is the edit-compile loop variant: the same analyzer suite
# over internal/... only, skipping the cmd and examples binaries (their
# findings are caught by the full lint inside make check).
lintshort:
	$(GO) build -o bin/seclint ./cmd/seclint
	$(GO) vet -vettool=$(CURDIR)/bin/seclint -p $(NPROC) ./internal/...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# testlog runs go test with the arguments $(2), keeping its full output in
# .testlogs/$(1).log (git-ignored), and prints the package results. When the
# run fails it also prints each failing test's name and the last lines of
# its output (scripts/failsummary.awk), so a flaky test names itself, and
# exits with go test's status.
testlog = mkdir -p .testlogs; \
	$(GO) test $(2) > .testlogs/$(1).log 2>&1; status=$$?; \
	grep -E '^(ok|FAIL)' .testlogs/$(1).log; \
	if [ $$status -ne 0 ]; then awk -f scripts/failsummary.awk .testlogs/$(1).log; fi; \
	exit $$status

race:
	@$(call testlog,race,-race ./...)

# bench compiles and runs every benchmark exactly once (-run '^$$' skips
# the unit tests, which race/test already cover). For real numbers, raise
# -benchtime; end-to-end numbers come from bash bench/run.sh.
bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# benchcheck vets, tests and lints bench/, the repository benchmark
# (BENCHMARK.json). It is its own module (replace => ../), so the ./...
# patterns above never compile it: without this target, renaming anything
# it imports from internal/... breaks the benchmark run and no test.
benchcheck:
	$(GO) build -o bin/seclint ./cmd/seclint
	cd bench && $(GO) vet . && $(GO) test . && $(GO) vet -vettool=$(CURDIR)/bin/seclint .

fmt:
	gofmt -l -w .

# fmtcheck fails when any file is unformatted (the listing is the error
# message); fmt fixes what it reports.
fmtcheck:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "unformatted files:"; echo "$$out"; exit 1; fi

# benchsmoke runs the WAL group-commit benchmarks a few iterations on a
# real filesystem — enough to catch a wedged pipeline or a benchmark that
# no longer compiles, without waiting for measurement-grade numbers.
benchsmoke:
	$(GO) test -run '^$$' -bench 'GroupCommit|AppendSyncPolicy' -benchmem \
		-benchtime 10x ./internal/wal/

# crashmatrix runs the fault-injection recovery suite: every test that
# drives a store to a crash point (write-torn, mid-fsync, mid-batch,
# mid-shared-fsync) and asserts the recovery invariants, under the race
# detector.
crashmatrix:
	@$(call testlog,crashmatrix,-race -run 'Crash|KillLeader' -v ./internal/wal/ ./internal/reldb/ \
		./internal/audit/ ./internal/resilience/... ./internal/replication/)

# crashshort is the bounded crash matrix wired into check: the same tests
# with -short, which widens the byte strides so tier-1 stays fast.
crashshort:
	$(GO) test -race -short -run 'Crash' ./internal/wal/ ./internal/reldb/ \
		./internal/audit/ ./internal/resilience/...

# fuzzshort gives every fuzz target a short budget on each check run: the
# decoders that parse attacker-controlled bytes (WAL records, auth
# tokens, XML documents, wsa envelopes, SQL text, replicated reldb log
# records, audit records) must never panic, whatever the input — the XML reader must accept
# what its encoding/xml reference accepts, bar the divergences it declares,
# and build the same tree, the envelope decoder must keep accepting, with
# an identical body, whatever its print-and-parse reference accepts, any
# SELECT the SQL parser accepts must execute without panicking, and Explain
# (the executor's planner) must not refuse it if it executes,
# a row SELECT without LIMIT must return, as a multiset, exactly the rows
# its bound matcher accepts over a brute-force scan, in ORDER BY order
# (keys non-decreasing), and with LIMIT k the first k rows of its answer
# without LIMIT — over the fixed table, and over random tables whose
# ORDER BY keys tie often (FuzzTopK: the bounded heap and the early-exit
# scan), and a log
# record a follower applies either leaves it untouched or stores only rows
# its schema accepts, and an audit record payload decodes and verifies
# without panicking while two v2 chain-hash preimages are equal only for
# equal field tuples, and a WAL segment's frames followed by any run of
# zeros (the unwritten tail of an extended segment) open, under any
# SegmentBytes and so any scan chunk size, to exactly those frames and end
# cleanly, and the front door (FuzzFrontDoor), over arbitrary token and
# wallet headers and form fields and claimed identities, never panics and
# serves a request only for a step of the one chain its gate minted, bound
# to the claimed identity, or for a wallet its verifier accepts, refusing
# anything else 400 (malformed) or 401. The corpus accumulated under
# testdata/ replays first, so past crashers stay fixed.
fuzzshort:
	$(GO) test -run '^$$' -fuzz FuzzTokenDecode -fuzztime 5s ./internal/authtoken/
	$(GO) test -run '^$$' -fuzz FuzzFrontDoor -fuzztime 5s ./internal/authtoken/
	$(GO) test -run '^$$' -fuzz FuzzWALDecode -fuzztime 5s ./internal/wal/
	$(GO) test -run '^$$' -fuzz FuzzScanSegment -fuzztime 5s ./internal/wal/
	$(GO) test -run '^$$' -fuzz FuzzParseDocument -fuzztime 5s ./internal/xmldoc/
	$(GO) test -run '^$$' -fuzz FuzzDecodeEnvelope -fuzztime 5s ./internal/wsa/
	$(GO) test -run '^$$' -fuzz FuzzParse -fuzztime 5s ./internal/reldb/
	$(GO) test -run '^$$' -fuzz FuzzTopK -fuzztime 5s ./internal/reldb/
	$(GO) test -run '^$$' -fuzz FuzzApplyCommit -fuzztime 5s ./internal/reldb/
	$(GO) test -run '^$$' -fuzz FuzzAuditRecord -fuzztime 5s ./internal/audit/

# failovershort is the replication gate wired into check: a 3-node
# cluster elects, replicates, survives kill-the-leader at sampled byte
# offsets (shortened matrix) and keeps every acknowledged commit, under
# the race detector.
failovershort:
	$(GO) test -race -short -run 'TestThreeNodeReplication|TestKillLeaderMatrix|TestFailoverOnLeaderStop' \
		./internal/replication/

# size prints the numbers ROADMAP tracks and CHANGES.md reports before ->
# after: non-test Go lines per package under internal/ and cmd/ (testdata
# fixtures excluded), then the totals — non-test lines, test lines (every
# _test.go outside bench/: the root package's, internal/, cmd/ and
# examples/), packages, exported top-level func/type declarations (methods
# count) — and the Go lines of examples/, which are counted in none of the
# totals above.
size:
	@src=$$(find internal cmd -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' | sort); \
	tests=$$(find . -path ./bench -prune -o -name '*_test.go' ! -path '*/testdata/*' -print); \
	for d in $$(dirname $$src | sort -u); do \
		printf '%7d  %s\n' $$(echo "$$src" | grep "^$$d/[^/]*$$" | xargs cat | wc -l) $$d; \
	done; \
	printf '%7d  non-test lines\n' $$(cat $$src | wc -l); \
	printf '%7d  test lines\n' $$(cat $$tests | wc -l); \
	printf '%7d  packages\n' $$(dirname $$src | sort -u | wc -l); \
	printf '%7d  exported func/type declarations\n' $$(cat $$src | grep -cE '^(type|func( \([^)]*\))?) [A-Z]'); \
	printf '%7d  examples\n' $$(find examples -name '*.go' ! -name '*_test.go' | xargs cat | wc -l)
