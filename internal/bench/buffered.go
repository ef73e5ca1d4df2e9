package bench

import (
	"runtime"

	"repro/internal/pmem"
	"repro/internal/redodb"
)

// Buffered-durability sweep (BENCH_pr8.json is its frozen history).
// The "sync" baseline pays the full synchronous price per Put — a combining
// round, the dirty-line flush, a fence, and the header publish, every
// operation. The "buffered" cells run db_bench-style group commit at batch
// depth N: each worker accumulates N puts in a WriteBatch, applies it as one
// transaction into the in-flight epoch, and Syncs — sealing the epoch with
// ONE fence for the whole group. Depth therefore amortizes both the
// per-transaction software cost (one combining round per N puts) and the
// persistence cost (fences/put falls as ~2/N); TestTrajectoryClaims pins
// >= 5x at depth 64 with a bounded p99 (the batch-closing put absorbs the seal, so
// the tail is the group-commit latency, not a lost write).

// bufferedDepths are the sweep's Sync batch depths per worker.
var bufferedDepths = []int{1, 8, 64}

// BufferedEntries measures the fillrandom baseline plus one buffered cell
// per batch depth on an unsharded RedoDB.
func BufferedEntries(cfg DBConfig, threads int) []BenchEntry {
	out := []BenchEntry{bufferedCell(cfg, threads, 0)}
	for _, d := range bufferedDepths {
		// Each cell leaves a dead ~50 MB pool behind; reclaim it before the
		// next measurement so GC pauses don't land inside the timed window.
		runtime.GC()
		out = append(out, bufferedCell(cfg, threads, d))
	}
	return out
}

// bufferedCell measures one fillrandom cell: depth 0 is the synchronous
// baseline, depth >= 1 runs buffered with a Sync every depth ops per worker.
func bufferedCell(cfg DBConfig, threads, depth int) BenchEntry {
	buffered := depth > 0
	regions := threads + 1
	if buffered {
		regions = threads + 2 // curComb + persister pin + a free replica
	}
	pool := pmem.New(pmem.Config{
		Mode: pmem.Direct, RegionWords: cfg.Words, Regions: regions, Latency: cfg.Lat,
	})
	db := redodb.Open(pool, redodb.Options{Threads: threads, Buffered: buffered})
	sessions := make([]*redodb.Session, threads)
	for i := range sessions {
		sessions[i] = db.Session(i)
	}
	keys := make([][]byte, cfg.Keys)
	for i := range keys {
		keys[i] = dbKey(uint64(i))
	}
	rngs := makeRNGs(threads)
	// Warm to steady state: every key present so the measured window sees
	// overwrites, and (buffered) the batch/seal path exercised at the
	// measured depth so the log and dirty-list scratch is grown before
	// measurement.
	if buffered {
		wb := &redodb.WriteBatch{}
		for i := uint64(0); i < cfg.Keys; i++ {
			wb.Put(keys[i], dbValue)
			if wb.Len() >= depth {
				sessions[0].Write(wb)
				sessions[0].Sync()
				wb.Clear()
			}
		}
		if wb.Len() > 0 {
			sessions[0].Write(wb)
			sessions[0].Sync()
		}
	} else {
		for i := uint64(0); i < cfg.Keys; i++ {
			sessions[0].Put(keys[i], dbValue)
		}
	}
	pool.ResetStats()
	var res Result
	if buffered {
		batches := make([]*redodb.WriteBatch, threads)
		for i := range batches {
			batches[i] = &redodb.WriteBatch{}
		}
		res = RunThroughputLat(pool, threads, cfg.Dur, func(tid, i int) {
			b := batches[tid]
			b.Put(keys[rngs[tid].intn(cfg.Keys)], dbValue)
			if b.Len() >= depth {
				sessions[tid].Write(b)
				sessions[tid].Sync()
				b.Clear()
			}
		})
	} else {
		res = RunThroughputLat(pool, threads, cfg.Dur, func(tid, i int) {
			sessions[tid].Put(keys[rngs[tid].intn(cfg.Keys)], dbValue)
		})
	}
	path := "sync"
	if buffered {
		path = "buffered"
	}
	return BenchEntry{
		Workload:     "fillrandom",
		Engine:       "RedoDB",
		Shards:       1,
		Threads:      threads,
		Path:         path,
		Depth:        depth,
		OpsPerSec:    res.OpsPerSec(),
		PWBsPerTx:    res.PWBsPerOp(),
		PFencesPerTx: res.FencesPerOp(),
		P50Ns:        res.Lat.P50Ns,
		P99Ns:        res.Lat.P99Ns,
	}
}
