# Local entry points mirroring .github/workflows/ci.yml, so `make test`
# locally and the CI job run the same commands.

GO ?= go

.PHONY: build test test-noasm test-noavx2 test-ties fuzz test-faults test-serve test-resultcache test-persist check-run-patterns test-bench bench bench-cold bench-json lint lint-docs loc fmt

build:
	$(GO) build ./...

test:
	$(GO) test -race ./...

# The CI matrix legs without the AVX2 block kernel — a build without the
# assembly at all, and the assembly build with the kernel force-disabled
# at process start (see internal/engine/kernel.go): the one-way passes of
# the flat fragment (sorted pass, stream, cross-shard fold) then compare on
# flat records.
test-noasm:
	$(GO) test -race -tags noasm ./...

test-noavx2:
	PREFSQL_DISABLE_AVX2=1 $(GO) test -race ./...

# The one-shot path's exactness and bookkeeping batteries under the race
# detector (CI runs them on every kernel leg): tie operands — float image
# for INT/FLOAT attributes, equality codes for the rest — against the
# predicate tree and the interpreted preference pair by pair under every
# bind scope, numeric binds that must request no equality codes, the
# one-pass selection against Pred.Eval, a generation memo's admission
# order with its flat-in-capacity cost, the cross-shard fold against the oracle
# on each of its comparators (no intra-part pair, pairs ≤ Σ|W|·|Lᵢ|), the
# sorted pass (score-sum order, blocked one-way filter) and the window
# pass on records and on blocks against the oracle on the edge rows with
# their named cases and re-check counts, the block kernel's verdicts on
# its store and its negated mirror against the masked model, the routes
# the planner gives the served statement shapes with EXPLAIN before == what
# ran == EXPLAIN after, the grouped route (a shard's groups share its
# form's key cost), the SKYLINE OF chain products' routes against the BNL
# oracle with EXPLAIN's algorithm and comparator == the one pass that ran,
# plans and EXPLAIN text that read the same at one and four Ps but for
# the shard fan-out's figures, the borrowed-slab lifetime checks — fold
# records carried past their slab while a gathered evaluation stores no
# result entry, abandoned workers, concurrent sessions — all with released
# slabs poisoned (the engine and psql suites turn the guard on in
# TestMain), and the ordered hard selection: value-order reads
# against the scan and Cmp.Eval on edge values over every layout (the
# battery and FuzzRangeCut's seed corpus), orders bounded under inserts,
# EXPLAIN's probe (which marks and keeps no order) and its access path
# equal to the one the run took; the sorted walk of a whole-shard step
# (each walk against the sort of the compiled score vector, no walk on a
# non-finite target, the served hot pool walked against the oracle with a
# gathered bind per walked shard, concurrent statements walking one
# table, EXPLAIN's walk equal to the one that ran); the fused flat
# bind against a fresh pref.Compile and the oracle over every layout and
# on the walked whole-shard route (the
# battery and FuzzFlatBind's seed corpus), the planner's allocations, the
# cold statement's allocation bound, and a finished statement pinning no
# bound form. CI runs this battery and test-faults a second time at
# GOMAXPROCS=1, the served benchmark's one P, where the shard fan-out is
# an inline loop (with GOFLAGS=-count=1: the test cache does not key on
# GOMAXPROCS).
TIES_RUN := FlatShape|FlatKernel|NumericTerm|NumericFlat|GatheredBind|HighestShares|ExtendedRows|OnePassSelection|AdmissionOrder|AlternatingKeys|PutAtCapacity|OneShotFlood|ShardMerge|GatheredEntry|AbandonedGathered|ColdShapesConcurrent|PrioritizedEstimate|KernelDominance|BlockedChainFilter|PlannerRoutesColdShapes|PlannerRoutesChainProducts|PlannerGroupsShare|PlannerSmallFlat|ExplainBindScope|ExplainWorkloadStatements|RangeCut|ValueOrderBounded|ProbeValueOrder|ExplainAccessPath|FlatBind|PlanCoreAllocs|PlanIgnoresProcs|ColdSelectiveStatementAllocBound|FinishedStatement|SortedWalk
TIES_PKGS := ./internal/pref ./internal/engine ./internal/filter ./internal/psql ./internal/relation
test-ties:
	$(GO) test -race -run '$(TIES_RUN)' $(TIES_PKGS)

# A short fuzzing run of the ordered hard selection, of the fused flat
# bind (and the sorted walk's route), of the wire frame decoders, of the
# statement parser and of an epoch's files (epoch.json and rows.pag read
# by every row path: decode, reload over the kept row-offset table, full
# scan, copy) — the seed corpora alone run in every `go test`;
# FUZZTIME=1m or longer to explore further.
FUZZTIME ?= 10s
fuzz:
	$(GO) test -run 'xxx' -fuzz 'FuzzRangeCut' -fuzztime $(FUZZTIME) ./internal/filter
	$(GO) test -run 'xxx' -fuzz 'FuzzFlatBind' -fuzztime $(FUZZTIME) ./internal/engine
	$(GO) test -run 'xxx' -fuzz 'FuzzDecodeFrames' -fuzztime $(FUZZTIME) ./internal/wire
	$(GO) test -run 'xxx' -fuzz 'FuzzParse' -fuzztime $(FUZZTIME) ./internal/psql
	$(GO) test -run 'xxx' -fuzz 'FuzzEpoch' -fuzztime $(FUZZTIME) ./internal/relation/store

# The fault-tolerance suite under the race detector: fault injection
# (slow/hung/panicking/erroring shards) against both policies, the
# randomized cancellation agreement property (clean context error XOR the
# exactly-correct result, never torn), admission control, and the
# goroutine-leak checks around abandoned streams.
FAULTS_RUN := Fault|Cancel|Partial|Admission|FanShards|Abandoned
FAULTS_PKGS := ./internal/faultinject ./internal/relation ./internal/engine ./internal/psql
test-faults:
	$(GO) test -race -run '$(FAULTS_RUN)' $(FAULTS_PKGS)

# The serving-layer suite under the race detector: the wire-protocol
# round trips and FuzzDecodeFrames' seed corpus, the server e2e battery
# (agreement over real connections, streams, prepared statements,
# admission/timeout/disconnect faults, drain) and the snapshot-isolation
# torture tests at every level — storage (relation), catalog (psql) and
# server.
SERVE_RUN := Snapshot|Torture
SERVE_PKGS := ./internal/relation ./internal/psql
test-serve:
	$(GO) test -race ./internal/wire ./internal/server
	$(GO) test -race -run '$(SERVE_RUN)' $(SERVE_PKGS)

# The result-cache suite under the race detector: the cache's own unit
# battery (counters, capacity), the
# engine serve/maintenance properties (randomized cached-vs-recompute
# agreement under insert churn, snapshot pinning, sharded agreement at
# 1..8 shards, dead-context refusal), and the psql end-to-end churn
# battery across flat and sharded layouts, every algorithm, and catalog
# insert/replace/drop mutations against the interpreted BNL oracle over
# the flattened table — plus WHERE-scoped statements never reaching the
# cache (the cold_skyline shapes, flat and sharded), a generation's memo
# keeping exactly the result entries, a superseded generation and a
# dropped or replaced table freeing them (and a RANK statement's score
# vector, shared by a snapshot and the live relation), the EXPLAIN annotations
# and the server's retained answers (byte-served repeats equal to fresh
# executions across inserts, sessions, SET, Replace and Reshard; what is
# never retained; the stats counters).
RESULTCACHE_RUN := ResultCache|Maintenance|SnapshotPin|DeadContext|SupersededGeneration|KeepsOnlyResults|CatalogDrop|ExplainReports|ParseCache|RowBatch|StreamUsesRowBatch|ResultBytes|StatsTurn
RESULTCACHE_PKGS := ./internal/engine ./internal/psql ./internal/wire ./internal/server
test-resultcache:
	$(GO) test -race ./internal/engine/resultcache
	$(GO) test -race -run '$(RESULTCACHE_RUN)' $(RESULTCACHE_PKGS)

# The disk-tier suite under the race detector: the storage-format unit
# battery (page codec, segments, WAL framing, buffer pool, a page
# validated once per epoch — reloads that stop at a rewritten page's
# checksum, failed validations that keep no table, retired epochs that
# keep none — rows copied out of pages for every tag, FuzzEpoch's seed
# corpus), the relation-level persistence battery (round trips, WAL
# recovery, the mid-append crash torture, checkpointing, sharded stores,
# snapshot pins under paged churn, beyond-pool-budget reads, encoded
# answers against boxed ones, their allocations, row-offset tables
# bounded across checkpoints, a memo kept across a checkpoint), the
# displaced and replaced shards freeing their cached entries, a cached
# result surviving an auto-checkpoint, the psql beyond-RAM agreement acceptance, encoded answers'
# frames byte-identical to the boxed path's and the server stats frame.
PERSIST_RUN := Persist|ReshardFrees|ReplaceFrees|StatsTurn
PERSIST_PKGS := ./internal/relation ./internal/engine ./internal/psql ./internal/server
test-persist:
	$(GO) test -race ./internal/relation/store
	$(GO) test -race -run '$(PERSIST_RUN)' $(PERSIST_PKGS)

# Every alternative of the -run patterns above must select at least one
# test, fuzz target or example in its battery's packages (go test -list):
# otherwise a deleted or renamed test silently drops out of a battery.
check-run-patterns:
	@fail=0; \
	check() { \
		names=$$($(GO) test -list '.*' $$3) || exit 1; \
		names=$$(echo "$$names" | grep -E '^(Test|Fuzz|Example)'); \
		for alt in $$(echo "$$2" | tr '|' ' '); do \
			if ! echo "$$names" | grep -q -- "$$alt"; then \
				echo "$$1: -run alternative '$$alt' matches no test in $$3"; fail=1; \
			fi; \
		done; \
	}; \
	check test-ties '$(TIES_RUN)' '$(TIES_PKGS)'; \
	check test-faults '$(FAULTS_RUN)' '$(FAULTS_PKGS)'; \
	check test-serve '$(SERVE_RUN)' '$(SERVE_PKGS)'; \
	check test-resultcache '$(RESULTCACHE_RUN)' '$(RESULTCACHE_PKGS)'; \
	check test-persist '$(PERSIST_RUN)' '$(PERSIST_PKGS)'; \
	exit $$fail

# The served-statement benchmark harness is its own module (bench/go.mod,
# `replace repro => ../`), so `go build ./...` and `go test ./...` never
# see it: vet and smoke-test it explicitly (toy sizes, ~2 s), so a change
# to an internal API it imports fails here instead of at the next
# benchmark run.
test-bench:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# One iteration per benchmark — the CI smoke job. Use BENCHTIME=2s (or any
# go -benchtime value) for real measurements.
BENCHTIME ?= 1x
bench:
	$(GO) test -run 'xxx' -bench . -benchtime $(BENCHTIME) -benchmem ./...

# The micro-benchmarks of the one-shot statement path, with B/op and
# allocs/op: a first-seen selective BMO statement end to end below the
# wire, a cold whole-table one with and without kept value orders (the
# sorted walk against the whole bind), one pass over a statement's candidates per comparator (window pass
# on tree, records and blocks, sorted pass on records and blocks, with
# pairs/op or lanes/op, on the cold_skyline and durable_paged shapes), the cross-shard fold alone (2–8 parts × 16–2048 local maxima,
# blocked sweeps, flat and tree, with its pairs/op), and the
# paged row read a statement ends in (Pick of 1/37/300 rows from a store
# whose pool holds 1/8 or all of the row pages) — and, beside them, a
# repeated served statement over loopback (hit: the retained answer's
# bytes; miss: a first sighting through parse, pipeline and encode), and
# one cold range cut, scanned against read out of the column's value
# order, at 0.1–100 % selectivity. CI tees their rows into the job summary.
bench-cold:
	$(GO) test -run 'xxx' -bench 'Cold(Selective|WholeTable)BMO' -benchmem .
	$(GO) test -run 'xxx' -bench 'RangeCut' -benchtime 0.3s -benchmem ./internal/filter
	$(GO) test -run 'xxx' -bench 'DominanceKernel' -benchtime 0.3s -benchmem ./internal/engine
	$(GO) test -run 'xxx' -bench 'ShardMerge$$' -benchtime 0.3s -benchmem ./internal/engine
	$(GO) test -run 'xxx' -bench 'PagedPick' -benchtime 0.3s -benchmem ./internal/relation
	$(GO) test -run 'xxx' -bench 'ServeRepeatedStatement' -benchtime 0.3s -benchmem ./internal/server

# Machine-readable benchmark capture: runs the suite and writes the JSON
# baseline tracked in-tree (ns/op, B/op, allocs/op per benchmark) — ONE
# file, BENCH_BASELINE.json, re-captured when a PR moves it on purpose
# (earlier per-PR files live in git history). Pass BENCHJSON_TIME=1x for a
# smoke run; the committed baseline uses a real benchtime and is captured
# under GOMAXPROCS=1 (`GOMAXPROCS=1 make bench-json`): cmd/benchjson keeps
# go test's `-N` procs suffix in the benchmark names, so a capture on N>1
# Ps shares no name with a one-P baseline. The file is a trend record, not
# a gate: speed claims are made on the served benchmark (bench/).
BENCHJSON_TIME ?= 0.5s
BENCHJSON_OUT ?= BENCH_BASELINE.json
bench-json:
	# Two steps, not a pipe: a pipe would discard go test's exit status
	# and mask failing/panicking benchmarks from CI.
	$(GO) test -run 'xxx' -bench . -benchtime $(BENCHJSON_TIME) -benchmem ./... > $(BENCHJSON_OUT).txt
	$(GO) run ./cmd/benchjson < $(BENCHJSON_OUT).txt > $(BENCHJSON_OUT)
	@rm -f $(BENCHJSON_OUT).txt

lint:
	$(GO) vet ./...
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "files need gofmt:"; echo "$$out"; exit 1; \
	fi

# Grep-based doc lint: every exported top-level symbol in the core
# packages must carry a doc comment (the line above its declaration must
# be a comment). Grouped const/var blocks are exempt by construction —
# their members are indented.
DOC_PKGS = internal/pref internal/engine internal/engine/resultcache internal/relation internal/relation/store internal/filter internal/quality internal/rank internal/faultinject internal/wire internal/server
lint-docs:
	@fail=0; \
	for f in $$(find $(DOC_PKGS) -name '*.go' ! -name '*_test.go'); do \
		awk -v file=$$f '\
			/^(func|type|var|const) [A-Z]/ || /^func \([A-Za-z_]+ \*?[A-Z][^)]*\) [A-Z]/ { \
				if (prev !~ /^\/\//) { printf "%s:%d: missing doc comment: %s\n", file, FNR, $$0; bad = 1 } } \
			{ prev = $$0 } \
			END { exit bad }' $$f || fail=1; \
	done; \
	if [ $$fail -ne 0 ]; then echo "lint-docs: exported symbols need doc comments"; exit 1; fi

# Non-test, non-blank, non-comment Go lines per package under internal/
# and cmd/ (a package's subdirectories count with it), then the total: the
# line count ROADMAP asks each PR to report beside its benchmark rows. CI
# writes it to the job summary.
loc:
	@find internal cmd -name '*.go' ! -name '*_test.go' | sort | xargs awk '\
		FNR == 1 { split(FILENAME, p, "/"); pkg = p[1] "/" p[2] } \
		{ s = $$0; gsub(/^[ \t]+|[ \t]+$$/, "", s) } \
		s == "" || s ~ /^\/\// { next } \
		{ n[pkg]++; total++ } \
		END { for (k in n) printf "%-26s %6d\n", k, n[k] | "sort"; close("sort"); printf "%-26s %6d\n", "total", total }'

fmt:
	gofmt -w .
