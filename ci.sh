#!/bin/sh
# ci.sh — the tier-1 gate. Everything here must pass on every change:
# compile, go vet, pmemvet (the repo's own static checks for transaction
# closures and persistence ordering — see DESIGN.md "Static checks"), the
# full test suite, and the race detector over the concurrency-heavy
# packages.
set -eux

go build ./...
go vet ./...
go run ./cmd/pmemvet ./...
go test ./...
# The benchmark lives in its own module (perfbench/go.mod replaces repro with
# the root), so the root `go test ./...` does not enter it: vet and test it
# here, or a session-API change that breaks the benchmark passes the gate.
go -C perfbench vet ./...
go -C perfbench test ./...
go test -race ./internal/core/... ./internal/ptm/... ./internal/psim/... ./internal/handmade/...
# Bounded race smokes for the sharded DB (batch coordinator + per-shard
# engines) and the observability layer (tracer ring, histograms); the full
# packages under -race take >30 s, the smokes take ~2 s.
go test -race -run TestRaceSmoke ./internal/shardeddb ./internal/obs

# Bounded crash-consistency smoke: a coarse-stride sweep over every engine
# under both crash models. The full sweeps (default stride, -nested,
# -corrupt) are the acceptance run, not the per-commit gate.
go run ./cmd/crashcheck -ops 8 -stride 11

# Buffered-durability epoch-boundary smoke (PR 8): crash the group-commit
# engines at every PM instruction boundary around their epoch seals and
# watermark advances. The full stride-1 matrix over all four buffered
# engines runs as TestBufferedEpochBoundarySweep in `go test ./...`; this
# pins the two acceptance shapes (unsharded depth-2, 8-shard) per commit.
go run ./cmd/crashcheck -engine redodb-buffered-d2,shardeddb-buffered-8 -ops 6 -stride 1

# Background-persister smoke under the race detector (PR 8): the persister
# goroutine sealing epochs concurrently with writers, Watch registrations
# and Sync waiters, on both the unsharded and the sharded engine.
go test -race -run 'TestBufferedPersisterGoroutine|TestBufferedShardedPersisterGoroutine' ./internal/redodb ./internal/shardeddb

# Bounded retry-storm smoke under the race detector (PR 7): the dedup-table
# unit tests plus one non-adversarial exactly-once storm on the unsharded
# engine, together ~3 s. The full storm matrix (all engines, both crash
# models, every injection point) runs in the regular `go test ./...` above
# and via `crashcheck -retrystorm` in the acceptance run.
go test -race ./internal/detect
go test -race -run 'TestRetryStormSmoke/detect-redodb$' ./internal/chaos

# Trace/stats parity smoke under the race detector: one engine's traced
# workload must reproduce its StatsSnapshot counters event-for-event and
# pass the dynamic ordering checker (the full per-engine matrix runs in the
# regular `go test ./...` above; this pins the concurrency of the tracer).
go test -race -run 'TestTraceStatsParity/redodb$' ./internal/chaos

# Tracked bench trajectory: sharded RedoDB ops/s, persistence instructions
# per tx, and p50/p99 op latency at 1 and 8 shards (fillrandom +
# readrandom). The four 0.25 s cells keep the whole emission well under
# 30 s; the output file is checked in so reviewers can diff the trajectory
# across PRs (BENCH_pr3.json holds the pre-latency trajectory).
go run ./cmd/dbbench -json BENCH_pr4.json -shards 1,8 -keys 10000 -secs 0.25 -threads 4

# Value-size sweep (PR 5): fillrandom pwbs/tx and allocs/op on the bulk-store
# path vs the per-word ablation at 64 B / 256 B / 1 KiB values, plus the
# zero-allocation GetAppend readrandom cells. TestBenchPR5Trajectory asserts
# the checked-in file's invariants (bulk pwbs/tx at 1 KiB >= 2x lower than
# word, GetAppend allocation-free).
go run ./cmd/dbbench -json BENCH_pr5.json -valuesize 64,256,1024 -keys 5000 -secs 0.25 -threads 4

# Detectable-operation overhead (PR 7): plain vs detectable fillrandom on
# the unsharded engine. TestBenchPR7Trajectory asserts the checked-in file's
# invariant: the in-transaction dedup receipt costs <= 2 extra pwbs/tx.
go run ./cmd/dbbench -json BENCH_pr7.json -detect -keys 10000 -secs 0.25 -threads 4

# Buffered group-commit sweep (PR 8): synchronous baseline vs WriteBatch
# group commit at depths 1/8/64, single-threaded so the cell isolates the
# commit path instead of scheduler noise on small CI machines.
# TestBenchPR8Trajectory asserts the checked-in file's invariants: >= 5x
# fence amortization at depth 64, lower pwbs/tx, bounded p99.
go run ./cmd/dbbench -json BENCH_pr8.json -sync buffered -depth 1,8,64 -keys 10000 -secs 0.5 -threads 1

# Allocator space figure smoke: fillrandom bytes-of-NVMM-per-key at
# 100 B / 1 KiB / 8 KiB values under the arena allocator (the Fig-8-style
# space figure). The output goes to a scratch file: BENCH_pr10.json stays
# as the frozen record of the removed power-of-two allocator, and
# TestBenchPR10Trajectory measures the same arena cells in-process against
# its "legacy" cells (arena <= 0.75x legacy bytes/key at 1 KiB, bounded
# arena fragmentation).
SPACE_JSON=$(mktemp)
go run ./cmd/dbbench -json "$SPACE_JSON" -space 100,1024,8192 -keys 2000 -threads 1
rm -f "$SPACE_JSON"

# Wire-protocol race smokes (PR 9): pipelined connections hammering the
# per-connection arena batch through real sockets, and the connection-level
# batch-reuse pin (TestRaceSmokeConnBatches) already runs in the shardeddb
# smoke above.
go test -race -run 'TestRaceSmokeServerPipelined' ./internal/server

# Bounded decode-hardening fuzz smoke (PR 9): malformed frames must produce
# typed errors, never panics or over-reads (the seed corpus also runs inside
# `go test ./...` above; this adds a short live-mutation burst per commit).
go test -fuzz FuzzDecodeFrame -fuzztime 10s ./internal/wire

# Loopback serving-path smoke + tracked trajectory (PR 9): boot kvserver on
# an ephemeral port, preload, and sweep the four YCSB mixes at two offered
# loads through real TCP. kvload exits nonzero if any cell sees an error or
# a failed exactly-once receipt verification, so a passing run IS the
# end-to-end acceptance check. TestBenchPR9Trajectory asserts the checked-in
# file's invariants (all cells present, zero errors, coherent tails).
rm -f /tmp/kvserver.$$.addr
go build -o /tmp/kvserver.$$ ./cmd/kvserver
go build -o /tmp/kvload.$$ ./cmd/kvload
/tmp/kvserver.$$ -addr 127.0.0.1:0 -addrfile /tmp/kvserver.$$.addr \
    -shards 8 -threads 16 &
KVSERVER_PID=$!
for _ in $(seq 1 100); do
    [ -s /tmp/kvserver.$$.addr ] && break
    sleep 0.1
done
[ -s /tmp/kvserver.$$.addr ]
LOAD_RC=0
/tmp/kvload.$$ -addr "$(cat /tmp/kvserver.$$.addr)" \
    -workloads ycsb-a,ycsb-b,ycsb-c,ycsb-f -rates 4000,16000 \
    -conns 4 -secs 0.5 -keys 10000 -json BENCH_pr9.json || LOAD_RC=$?
kill $KVSERVER_PID
wait $KVSERVER_PID || true
rm -f /tmp/kvserver.$$ /tmp/kvload.$$ /tmp/kvserver.$$.addr
[ "$LOAD_RC" -eq 0 ]
