#!/bin/sh
# ci.sh — the tier-1 gate. Everything here must pass on every change:
# compile, go vet, gofmt, pmemvet (the repo's own static checks for
# transaction closures and persistence ordering — see DESIGN.md "Static
# checks"), the full test suite, race smokes over the concurrency-heavy
# packages, bounded crash sweeps, a wire fuzz burst and a loopback smoke of
# the server binaries. It writes no tracked file: the BENCH_pr*.json files
# are frozen history, and the claims they recorded are asserted live by
# internal/bench's TestTrajectoryClaims inside `go test ./...`.
set -eux

# --- build, vet, format -------------------------------------------------
go build ./...
go vet ./...
test -z "$(gofmt -l .)"
go run ./cmd/pmemvet ./...

# --- tests ----------------------------------------------------------------
go test ./...
# The benchmark lives in its own module (perfbench/go.mod replaces repro with
# the root), so the root `go test ./...` does not enter it: vet and test it
# here, or a session-API change that breaks the benchmark passes the gate.
go -C perfbench vet ./...
go -C perfbench test ./...

# --- race smokes ------------------------------------------------------------
go test -race ./internal/core/... ./internal/ptm/... ./internal/psim/... ./internal/handmade/...
# Sharded DB (batch coordinator + per-shard engines) and the observability
# layer (tracer ring, histograms); the full packages under -race take
# >30 s, the smokes ~2 s.
go test -race -run TestRaceSmoke ./internal/shardeddb ./internal/obs
# Buffered durability: the group persister (the only background one; a
# RedoDB is sealed by its callers) sealing every shard concurrently with
# writers and Sync waiters.
go test -race -run 'TestBufferedShardedPersisterGoroutine' ./internal/shardeddb
# The WriteBatch ownership contract: a reused, poisoned arena must not reach
# stored values through either store's write paths.
go test -race -run TestWriteBatchArenaReuse ./internal/redodb
# Exactly-once: the dedup-table unit tests plus one non-adversarial retry
# storm on the unsharded engine (the full storm matrix runs in
# `go test ./...` and via `crashcheck -retrystorm`).
go test -race ./internal/detect
go test -race -run 'TestRetryStormSmoke/detect-redodb$' ./internal/chaos
# Tracing: one engine's traced workload must reproduce its StatsSnapshot
# counters event-for-event and pass the dynamic ordering checker (the
# per-engine matrix runs in `go test ./...`; this pins the tracer's
# concurrency).
go test -race -run 'TestTraceStatsParity/redodb$' ./internal/chaos
# Serving path: pipelined connections hammering the per-connection arena
# batch through real sockets.
go test -race -run 'TestRaceSmokeServerPipelined' ./internal/server

# --- crash sweeps -------------------------------------------------------------
# A coarse-stride sweep over every engine under both crash models. The full
# sweeps (default stride, -nested, -corrupt) are the acceptance run, not the
# per-commit gate.
go run ./cmd/crashcheck -ops 8 -stride 11
# Buffered durability: crash the group-commit engines at every PM
# instruction boundary around their epoch seals and watermark advances (the
# stride-1 matrix over all four buffered engines is
# TestBufferedEpochBoundarySweep in `go test ./...`; this pins the two
# acceptance shapes, unsharded depth-2 and 8-shard).
go run ./cmd/crashcheck -engine redodb-buffered-d2,shardeddb-buffered-8 -ops 6 -stride 1

# --- wire fuzz ------------------------------------------------------------------
# Malformed frames must produce typed errors, never panics or over-reads (the
# seed corpus also runs inside `go test ./...`; this adds a short
# live-mutation burst).
go test -fuzz FuzzDecodeFrame -fuzztime 10s ./internal/wire

# --- loopback -------------------------------------------------------------------
# Boot the kvserver binary on an ephemeral port and drive one YCSB-F cell
# with kvload through real TCP. kvload exits nonzero if the cell sees an
# error or a failed exactly-once receipt verification, and its JSON must
# label the cell with the server's 8 shards (read back from STATS). The
# in-process net row of TestTrajectoryClaims covers all four mixes; this
# checks the binaries and their flags.
TMP=$(mktemp -d)
go build -o "$TMP/kvserver" ./cmd/kvserver
go build -o "$TMP/kvload" ./cmd/kvload
"$TMP/kvserver" -addr 127.0.0.1:0 -addrfile "$TMP/addr" -shards 8 -threads 16 &
KVSERVER_PID=$!
for _ in $(seq 1 100); do
    [ -s "$TMP/addr" ] && break
    sleep 0.1
done
LOAD_RC=0
[ -s "$TMP/addr" ] && "$TMP/kvload" -addr "$(cat "$TMP/addr")" \
    -workloads ycsb-f -rates 4000 -conns 4 -secs 0.5 -keys 10000 \
    -json "$TMP/load.json" || LOAD_RC=$?
SHARDS_RC=0
grep -q '"shards": 8' "$TMP/load.json" || SHARDS_RC=1
kill $KVSERVER_PID
wait $KVSERVER_PID || true
rm -rf "$TMP"
[ "$LOAD_RC" -eq 0 ]
[ "$SHARDS_RC" -eq 0 ]
