#!/bin/sh
# Full verification gate: tier 1 (ROADMAP.md; the goldens, gates, boundary
# rules and drain ledgers live there), then what go test ./... cannot do.
set -eux

cd "$(dirname "$0")/.."

# Tier 1; the timeout makes a hung test cost two minutes instead of ten.
go build ./...
go test -timeout 120s ./...
go vet ./...

# bench/ is a module of its own (pioqo/bench), frozen by BENCHMARK.json and
# built against this tree through a replace directive, so the patterns above
# do not see it: vet it and run its smoke test.
(cd bench && go vet ./... && go test ./...)

# Each example, what a reader runs first, must print its output.golden.
EXAMPLES_BIN=$(mktemp -d)
ROWS=$(mktemp -d)
trap 'rm -rf "$EXAMPLES_BIN" "$ROWS"' EXIT
go build -o "$EXAMPLES_BIN/" ./examples/...
for example in "$EXAMPLES_BIN"/*; do
	"$example" >"$example.out"
	cmp "$example.out" "examples/${example##*/}/output.golden"
done

# The race detector over the module, then at one and four threads over the
# state host threads share: each Env's free list of idle coroutines, emptied
# by a finalizer while host.Sweep runs Envs, and the plan cache's shapes.
go test -race ./...
go test -race -cpu 1,4 ./internal/sim/... ./internal/opt/...

# Five seconds each of fuzzing, from the corpus, the synthetic heap's
# accessors, the materialized index's counting build, the disk's
# access-time dispatch and the pool's gated fetches.
go test -timeout 120s -run '^$' -fuzz FuzzSyntheticPlacement -fuzztime 5s ./internal/table
go test -timeout 120s -run '^$' -fuzz FuzzMaterializedBuild -fuzztime 5s ./internal/btree
go test -timeout 120s -run '^$' -fuzz FuzzHDDDispatch -fuzztime 5s ./internal/device
go test -timeout 120s -run '^$' -fuzz FuzzGatedFetch -fuzztime 5s ./internal/buffer

# -golden-rows writes the digest goldens' full rows, then compares them: the
# path that shows a moved digest's first diverging row stays in use.
for pass in write compare; do
	go test -count=1 -run '^(TestPlanStreamGolden|TestDeviceStreamGolden)$' ./internal/opt ./internal/device -golden-rows "$ROWS"
done
