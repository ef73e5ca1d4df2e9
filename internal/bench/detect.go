package bench

import (
	"fmt"

	"repro/internal/pmem"
	"repro/internal/redodb"
)

// Detectable-operation overhead sweep (BENCH_pr7.json is its frozen
// history). A detectable Put writes its dedup receipt (digest word
// then seq commit word) inside the same redo-log transaction as the
// operation, so its cost over a plain Put is a fixed number of extra logged
// words — TestTrajectoryClaims pins that at <= 2 extra pwbs per
// transaction, with the p99 tail tracked alongside. Each worker acts as one client
// (client = tid+1) issuing strictly increasing seqs and acking its window
// every ackEvery ops, so the receipt ring stays at its initial capacity and
// the measurement reflects steady state rather than ring growth.

const detectAckEvery = 64

// DetectEntries measures fillrandom with plain Put vs detectable one-put
// batches (WriteOptions.Client set) on an unsharded RedoDB.
func DetectEntries(cfg DBConfig, threads int) []BenchEntry {
	var out []BenchEntry
	for _, path := range []string{"plain", "detect"} {
		out = append(out, detectCell(cfg, path, threads))
	}
	return out
}

// detectCell measures one (path, fillrandom) cell on a fresh RedoDB.
func detectCell(cfg DBConfig, path string, threads int) BenchEntry {
	pool := pmem.New(pmem.Config{
		Mode: pmem.Direct, RegionWords: cfg.Words, Regions: threads + 1, Latency: cfg.Lat,
	})
	db := redodb.Open(pool, redodb.Options{Threads: threads})
	sessions := make([]*redodb.Session, threads)
	for i := range sessions {
		sessions[i] = db.Session(i)
	}
	keys := make([][]byte, cfg.Keys)
	for i := range keys {
		keys[i] = dbKey(uint64(i))
	}
	rngs := makeRNGs(threads)
	seqs := make([]uint64, threads*8) // padded: one cache line apart
	batches := make([]redodb.WriteBatch, threads)
	putDetectable := func(tid int, seq uint64, key []byte) {
		b := &batches[tid]
		b.Clear()
		b.Put(key, dbValue)
		sessions[tid].Apply(b, redodb.WriteOptions{Client: uint64(tid + 1), Seq: seq})
	}
	// Warm to steady state before measuring: every key present (so the
	// measured window sees overwrites, not bucket growth) and each client
	// past its receipt-ring growth and first ack cycles — otherwise the
	// plain-vs-detect delta jitters with how much one-time warmup cost the
	// time budget happens to amortize.
	for i := uint64(0); i < cfg.Keys; i++ {
		sessions[0].Put(keys[i], dbValue)
	}
	if path == "detect" {
		for tid := 0; tid < threads; tid++ {
			client := uint64(tid + 1)
			for k := 0; k < 2*detectAckEvery; k++ {
				seqs[tid*8]++
				seq := seqs[tid*8]
				putDetectable(tid, seq, keys[uint64(k)%uint64(len(keys))])
				if seq%detectAckEvery == 0 {
					sessions[tid].AckApplied(client, seq)
				}
			}
		}
	}
	pool.ResetStats()
	var res Result
	switch path {
	case "plain":
		res = RunThroughputLat(pool, threads, cfg.Dur, func(tid, i int) {
			sessions[tid].Put(keys[rngs[tid].intn(cfg.Keys)], dbValue)
		})
	case "detect":
		res = RunThroughputLat(pool, threads, cfg.Dur, func(tid, i int) {
			client := uint64(tid + 1)
			seqs[tid*8]++
			seq := seqs[tid*8]
			putDetectable(tid, seq, keys[rngs[tid].intn(cfg.Keys)])
			if seq%detectAckEvery == 0 {
				sessions[tid].AckApplied(client, seq)
			}
		})
	default:
		panic(fmt.Sprintf("bench: unknown detect path %q", path))
	}
	return BenchEntry{
		Workload:     "fillrandom",
		Engine:       "RedoDB",
		Shards:       1,
		Threads:      threads,
		Path:         path,
		OpsPerSec:    res.OpsPerSec(),
		PWBsPerTx:    res.PWBsPerOp(),
		PFencesPerTx: res.FencesPerOp(),
		P50Ns:        res.Lat.P50Ns,
		P99Ns:        res.Lat.P99Ns,
	}
}
