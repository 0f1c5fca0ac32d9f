#!/bin/sh
# Full verification gate: the tier-1 check from ROADMAP.md, plus static
# analysis and a race-detector pass over the packages with the most
# scheduling-sensitive state (the simulator core and the observability
# primitives layered on it).
set -eux

cd "$(dirname "$0")/.."

# Tier 1 (keep in sync with ROADMAP.md). The slowest package (the root one)
# takes about 20 s on the 2-core reference host; the explicit timeout makes a
# hung test cost two minutes instead of go test's default ten.
go build ./...
go test -timeout 120s ./...

# bench/ is a module of its own (pioqo/bench), frozen by BENCHMARK.json and
# built against this tree through a replace directive: the patterns above
# do not see it, so a root-API change that breaks it would only surface in
# the benchmark run. Vet it and run its smoke test here.
(cd bench && go vet ./... && go test ./...)

# The examples are the programs a reader runs first, and no test runs
# them: build all of them once into a temporary directory and run each; a
# non-zero exit fails the gate. All eight take about 3 s together.
EXAMPLES_BIN=$(mktemp -d)
trap 'rm -rf "$EXAMPLES_BIN"' EXIT
go build -o "$EXAMPLES_BIN/" ./examples/...
for example in "$EXAMPLES_BIN"/*; do
	"$example" >/dev/null
done

# Tier 2: vet everything, race-test the event loop and metrics/span layer,
# plus the host-parallel sweep runner and the experiments that fan out on it
# (the determinism tests compare serial vs parallel output byte for byte),
# plus the batched executor and memoized optimizer, plus the calibration
# sweep (its cells fan out over host goroutines, each with its own scratch
# buffers), plus the root-package telemetry paths (observer + per-query
# WithTrace attribution under concurrent sessions, event log, progress, SLO
# reporting).
go vet ./...
# gofmt prints the files it would change; any name is a failure.
UNFORMATTED=$(gofmt -l .)
if [ -n "$UNFORMATTED" ]; then
	echo "verify: gofmt would reformat:" >&2
	echo "$UNFORMATTED" >&2
	exit 1
fi
# A hand-off is a coroutine switch and crosses no OS thread, so this pass no
# longer guards the baton. What it guards is each Env's free list of idle
# coroutines: host.Sweep runs Envs on parallel goroutines (the experiments
# race pass below drives that), and a list is emptied by a ticket's finalizer
# on the finalizer goroutine, ordered against the Env's next Run by one mutex
# — hence several thread counts. The goroutine accounting (nothing per
# process after a drain, nothing per Run, nothing one collection after the
# last Run), the free list's hygiene, its expiry between concurrent Runs and
# Goexit in a body then run three times over: they count goroutines, and
# state left by one round is what would make the next one miscount.
go test -race -cpu 1,2,4 ./internal/sim/...
go test -race -cpu 1,2,4 -count=3 -run 'TestNoGoroutinesLeftAfterDrain|TestAbandonedParkedProcessesKeepTheirCoroutines|TestFreeListHygiene|TestFreeListExpiresBetweenConcurrentRuns|TestGoexitInProcessEndsRunsGoroutine' ./internal/sim
go test -race ./internal/obs/... ./internal/host/... ./internal/experiments/... ./internal/exec/... ./internal/cost/... ./internal/broker/... ./internal/fault/... ./internal/buffer/... ./internal/node/... ./internal/adapt/... ./internal/device/... ./internal/disk/... ./internal/table/... ./internal/btree/... ./internal/calibrate/...
# The parameterized plan cache is shared between host threads: shapes are
# created, published and read lock-free, so its race pass runs single- and
# multi-threaded. The pass takes the whole package, so it also runs the
# memo's replay check (TestMemoReplayIsTheMissList: a hit re-ranks on the
# caller's stack, bit for bit the miss's list).
go test -race -cpu 1,4 ./internal/opt/...
# The goldens (internal/golden) pin virtual time to the nanosecond: the
# executor's schedule, the planner's cost bits (plan stream), the device
# models' request stream, the batch-accounting figures, the calibrated grids
# and the synthetic answers. Running each twice in one process also checks
# that a run leaves nothing behind that the next one can see (same bytes
# both times).
GOLDENS='^(TestScheduleGolden|TestPlanStreamGolden|TestDeviceStream.*|TestBatchAccounting.*|TestGoldenCalibratedModels|TestSyntheticAnswersGolden)$'
go test -count=2 -run "$GOLDENS" . ./internal/exec ./internal/opt ./internal/device ./internal/experiments ./internal/calibrate
# The digest goldens (plan stream, device stream) keep only per-section
# digests; -golden-rows writes their full rows once and compares them the
# second time, so the path that shows the first diverging row stays in use.
ROWS=$(mktemp -d)
trap 'rm -rf "$EXAMPLES_BIN" "$ROWS"' EXIT
go test -count=1 -run '^(TestPlanStreamGolden|TestDeviceStreamGolden)$' ./internal/opt ./internal/device -golden-rows "$ROWS"
go test -count=1 -run '^(TestPlanStreamGolden|TestDeviceStreamGolden)$' ./internal/opt ./internal/device -golden-rows "$ROWS"
# The residual gate: a cold full scan's estimate is a prediction, so
# predicted ÷ measured stays in [0.95, 1.08] on every Table-1 config at every
# degree and on the 8-shard gather; a cold serial index scan's stays in
# [0.88, 1.02] on the three HDD configs, which lie within 1.20× of each other,
# and the same scans under eight workers, priced from the HDD's fitted deeper
# rows, stay in [0.90, 1.10]; and the depth the optimizer prices a scan at is
# the block reads the executor keeps in flight.
go test -run 'TestResidual' -count=1 ./internal/experiments
go test -run 'TestScanDepthIsTheWindowTheScanRuns' -count=1 ./internal/opt
# The allocation gates on what a wider fleet multiplies: a worker takes its
# record, budget and scratch buffers from its node's free list, and an armed
# hedged read allocates its outer completion and nothing else. And on what
# every submission pays: planning ranks on the stack and allocates only what
# it keeps (a warm memo's miss nothing, a crossover fallback its published
# entry), and the broker's fair share is a closed form, not a split.
go test -run 'TestWorkerScratchIsReused' -count=1 ./internal/exec
go test -run 'TestHedgerAllocations' -count=1 ./internal/fault
go test -run '^(TestPlanningAllocatesOnlyWhatItKeeps|TestChooseAllocatesOnlyItsPlanList)$' -count=1 ./internal/opt
go test -run '^TestFairShareIsTheFirstSplit$' -count=1 ./internal/broker
# Two guards against defects that show in some processes and not in others,
# so each runs five times: a multiplier search that does not end on the 2-
# and 3-row tables the bijection property draws about one run in forty, and
# a checkpoint whose write order follows map iteration (same seed, different
# HDD runtime).
go test -timeout 120s -run 'TestSyntheticTinyTables|TestPropertySyntheticBijection' -count=5 ./internal/table
# The synthetic heap's accessors against each other on shapes nobody wrote
# down: five seconds of fuzzing from the checked-in corpus (page-crossing
# runs, the unmoved partial last page, tables of one to three rows). A
# failing input is written under internal/table/testdata/fuzz.
go test -timeout 120s -run '^$' -fuzz FuzzSyntheticPlacement -fuzztime 5s ./internal/table
go test -timeout 120s -run TestUpdateCheckpointOrderIsDeterministic -count=5 .
# The adaptive tests run twice in one process: controller or lease state a
# first run leaves behind shows in the second.
go test -race -count=2 -run 'TestEventLog|TestLiveProgress|TestSLOReport|TestConcurrentAttribution|TestObserver|TestAdaptive|TestWithAdaptive' .
# A query ends when its process does, and the drain behind it still brings
# every ledger home: the hedging and trace tests run twice in one process,
# so a run that leaves events, live processes or hedge records behind for
# the next one fails here. A read re-races each delay until a copy lands,
# up to its cap, and a query cut off by its deadline with copies racing
# still drains every record home.
go test -race -count=2 -run '^(TestHedgingUnderStragglers|TestHedgeDelayOffCriticalPath|TestStragglingGatherTraceEndsAtRuntime|TestHedgedGatherStaysNearHealthy|TestTimeoutWithHedgeCopiesInFlight)$' .
go test -race -count=2 -run '^TestHedger' ./internal/fault
# One Emit writes an event and bumps the counters its catalog row feeds: every
# fed counter moves by exactly what its events add, twice in one process.
go test -race -count=2 -run '^TestCountersAreTheirEvents$' ./internal/obs
# Circulating scans beside hot point lookups on an HDD: a scan's pages leave
# the pool first, so the lookups' device reads stay a fifth below plain LRU's
# misses, and every pin and rider is back at the drain; each producer leases
# its depth in turn, so the credits on loan stay within the supply and no
# block read lands before a producer's grant; riders canceled while their
# producer still queues drain clean; a batch of point lookups, one credit
# each, runs dozens deep on the HDD, the same way on two systems; and a
# session query is leased the depth its submit-time plan priced and runs
# that plan. Every entry point is admitted by the broker exactly once; a
# standalone query plans at a degraded supply and queues behind pending
# session submissions. Twice in one process each, so a run that leaves
# state behind for the next one fails here.
go test -race -count=2 -run '^(TestSharedScansLeaveTheHotSetResident|TestSharedProducersLeaseTheirDepth|TestRidersCanceledBeforeTheirProducerIsGranted|TestPointLookupsShareTheHDD|TestSessionRunsThePlanItSubmitted|TestEveryEntryPointIsAdmittedOnce|TestStandaloneQueryPlansAtDegradedSupply|TestStandaloneQueuesBehindPendingSubmissions)$' .

# The repo-wide lints below read the engine's sources only. bench/ is
# excluded from each: it is a reader of the engine (registry snapshots,
# planner stats), not an instrument or emit site, and it is frozen.

# Test-harness lint: internal/golden registers the goldens' flags (-update,
# -golden-rows) when imported, so only _test.go files may import it; in a
# command it would add them to the command's own flags.
if grep -rln '"pioqo/internal/golden"' --include='*.go' . | grep -v '_test\.go$'; then
	echo "verify: internal/golden imported outside a _test.go file" >&2
	exit 1
fi

# Node-assembly lint: a cluster node's storage stack (device, fault
# injector, disk manager, buffer pool, share registry) is assembled in
# internal/node and only there — the public package addresses nodes, never
# raw storage constructors. A direct constructor call in the root package
# rebuilds the pre-cluster single-device ownership the node refactor
# removed, and bypasses the hedger/injector layering scans depend on.
if grep -nE '(workload\.NewDevice|fault\.Wrap|buffer\.NewPool|buffer\.NewShares|disk\.NewManager)\(' ./*.go |
	grep -v '_test\.go'; then
	echo "verify: raw storage-stack constructor in the public package (assemble through internal/node)" >&2
	exit 1
fi

# Node-addressing lint: the System owns nodes, not storage fields. Direct
# s.dev/s.pool/s.inj/s.shares/s.manager/s.cpu accesses are the pre-cluster
# field layout; engine code must go through s.nodes[i] / s.coord().
if grep -nE 's\.(dev|pool|inj|shares|manager|cpu)\b' ./*.go |
	grep -v '_test\.go'; then
	echo "verify: direct System storage-field access in the public package (address the node instead)" >&2
	exit 1
fi

# Batch-accounting lint: every worker CPU charge in the executor must flow
# through the cpuBudget (batch.go) so debt settles before device
# interactions. A raw Use against the CPU resource anywhere else in the
# package reintroduces per-row kernel round-trips unnoticed. grep on a
# missing path is merely non-zero, so a renamed file would pass silently.
test -f internal/exec/batch.go || {
	echo "verify: internal/exec/batch.go is gone; point the batch-accounting lint at cpuBudget's new home" >&2
	exit 1
}
if grep -nE 'Use\(([a-z]+\.)?ctx\.CPU' internal/exec/*.go | grep -v 'internal/exec/batch.go'; then
	echo "verify: raw CPU Use outside internal/exec/batch.go (route through cpuBudget/useCPU)" >&2
	exit 1
fi

# Resource-governance lint: queue-depth supply arithmetic belongs to the
# broker. MaxBeneficialDepth is defined in internal/cost and consumed only
# by internal/broker; any other call site is a query hand-rolling its own
# budget split outside admission control, which is exactly the scattered
# arithmetic the broker layer replaced.
if grep -rn 'MaxBeneficialDepth' --include='*.go' . |
	grep -v '^\./bench/' |
	grep -v '_test\.go' |
	grep -v './internal/cost/' |
	grep -v './internal/broker/'; then
	echo "verify: MaxBeneficialDepth used outside internal/broker (lease budgets from the broker instead)" >&2
	exit 1
fi

# Error-taxonomy lint: sentinel conditions (cancellation, deadlines, device
# faults, closed admission) must be expressed by wrapping the taxonomy
# sentinels from internal/fault, never by minting fresh string errors —
# a raw errors.New/fmt.Errorf for one of these breaks every errors.Is
# caller silently.
if grep -rnE '(errors\.New|fmt\.Errorf)\("[^"]*([Cc]ancel|[Dd]eadline|[Dd]evice fault|[Aa]dmission)' \
	--include='*.go' . |
	grep -v '^\./bench/' |
	grep -v '_test\.go' |
	grep -v './internal/fault/'; then
	echo "verify: raw string error for a taxonomy condition (wrap the internal/fault sentinel instead)" >&2
	exit 1
fi

# Context-discipline lint: the executor runs in virtual time and takes its
# abort signal from fault.Control, threaded in by the public API layer. A
# context.Background() inside internal/exec means a code path manufactured
# its own context instead of accepting the caller's — cancellation would
# silently stop propagating.
if grep -n 'context\.Background()' internal/exec/*.go; then
	echo "verify: context.Background() inside internal/exec (thread the caller's abort control instead)" >&2
	exit 1
fi

# Shared-scan consumer lint: an attached scan consumes pages pushed by its
# table's circulating producer — the whole point is that riders add zero
# demand I/O. A FetchPage or Prefetch call in the shared consumer path
# would silently reintroduce per-rider device traffic and unravel the
# one-lap-over-N economics the optimizer prices the attach path with. The
# page evaluator the rider shares with the demand scan (evalPage) lives in
# the same file, so the lint covers it too — including the cpuBudget fetch
# helpers, which would reach the pool on its behalf.
test -f internal/exec/shared.go || {
	echo "verify: internal/exec/shared.go is gone; point the shared-consumer lint at the rider's new home" >&2
	exit 1
}
if ! grep -q '^func evalPage(' internal/exec/shared.go || ! grep -q '^func runSharedFullScan(' internal/exec/shared.go; then
	echo "verify: evalPage/runSharedFullScan moved out of internal/exec/shared.go; the shared-consumer lint no longer covers them" >&2
	exit 1
fi
if grep -nE '\.(FetchPage|FetchPageE|Prefetch|PrefetchRun|PrefetchRunTrimmed|fetchE|fetchRetry|prefetch)\(' internal/exec/shared.go; then
	echo "verify: demand fetch/prefetch in the shared-scan consumer path (pages must come from the circulating producer)" >&2
	exit 1
fi

# Degree-change lint: mid-flight parallelism changes acquire credits
# through the broker lease's grow path and nowhere else. The controller
# (internal/adapt) is the only caller of Lease.Grow, and the broker is the
# only definer; a call anywhere else bypasses admission control and the
# governed-teardown accounting that keeps lease credits conserved.
if grep -rn '\.Grow(' --include='*.go' . |
	grep -v '^\./bench/' |
	grep -v '_test\.go' |
	grep -v './internal/adapt/' |
	grep -v './internal/broker/'; then
	echo "verify: Lease.Grow called outside internal/adapt (degree changes go through the controller's lease path)" >&2
	exit 1
fi

# Zero-overhead gate: Emit bumps the counters its catalog row feeds and, with
# the event ring on, writes into the preallocated ring; neither allocates, so
# observability-off runs remain byte-identical at zero cost.
go test -count=1 -run '^TestEmitAllocatesNothing$' ./internal/obs
