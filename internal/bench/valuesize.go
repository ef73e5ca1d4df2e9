package bench

import (
	"fmt"
	"runtime"

	"repro/internal/core/redo"
	"repro/internal/pmem"
	"repro/internal/redodb"
)

// Value-size sweep (BENCH_pr5.json is its frozen history). RedoDB's
// per-word logging cost is invisible at db_bench's 100-byte values and
// dominant at 1KiB, so the sweep runs fillrandom at several payload sizes on
// two configurations of the same engine — the bulk-store path (RedoOpt) and
// the word-path ablation (RedoOpt minus Bulk) — recording throughput,
// pwbs/tx, pfences/tx, heap allocations per operation and latency tails.
// A readrandom cell per size tracks the zero-allocation GetAppend path.

// valueOf returns a deterministic payload of n bytes.
func valueOf(n int) []byte {
	v := make([]byte, n)
	for i := range v {
		v[i] = byte('a' + i%26)
	}
	return v
}

// valueSizes are the sweep's payload sizes in bytes.
var valueSizes = []int{64, 256, 1024}

// ValueSizeEntries runs the sweep cells for each payload size.
func ValueSizeEntries(cfg DBConfig, threads int) []BenchEntry {
	var out []BenchEntry
	for _, size := range valueSizes {
		for _, path := range []string{"bulk", "word"} {
			out = append(out, valueSizeCell(cfg, "fillrandom", size, path, threads))
		}
		out = append(out, valueSizeCell(cfg, "readrandom", size, "bulk", threads))
	}
	return out
}

// valueSizeCell measures one (workload, size, path) cell on a fresh RedoDB.
func valueSizeCell(cfg DBConfig, workload string, size int, path string, threads int) BenchEntry {
	feat := redo.Features{Funnel: true, StoreAgg: true, DeferFlush: true, NTCopy: true,
		Bulk: path == "bulk"}
	pool := pmem.New(pmem.Config{
		Mode: pmem.Direct, RegionWords: regionWords(cfg, size), Regions: threads + 1, Latency: cfg.Lat,
	})
	db := redodb.Open(pool, redodb.Options{Threads: threads, Features: &feat})
	sessions := make([]*redodb.Session, threads)
	for i := range sessions {
		sessions[i] = db.Session(i)
	}
	val := valueOf(size)
	// Pre-render the keys so key formatting doesn't pollute the per-op
	// allocation measurement (the point of the readrandom cells is that
	// GetAppend itself allocates nothing).
	keys := make([][]byte, cfg.Keys)
	for i := range keys {
		keys[i] = dbKey(uint64(i))
	}
	rngs := makeRNGs(threads)
	// Every key present before measuring, so a fillrandom window sees
	// overwrites only: its pwbs/tx then no longer depends on how many of
	// its operations were inserts paying for table growth.
	for i := uint64(0); i < cfg.Keys; i++ {
		sessions[0].Put(keys[i], val)
	}
	dsts := make([][]byte, threads)
	for i := range dsts {
		dsts[i] = make([]byte, 0, size+64)
	}
	pool.ResetStats()
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	var res Result
	switch workload {
	case "fillrandom":
		res = RunThroughputLat(pool, threads, cfg.Dur, func(tid, i int) {
			sessions[tid].Put(keys[rngs[tid].intn(cfg.Keys)], val)
		})
	case "readrandom":
		res = RunThroughputLat(pool, threads, cfg.Dur, func(tid, i int) {
			dsts[tid], _ = sessions[tid].GetAppend(dsts[tid][:0], keys[rngs[tid].intn(cfg.Keys)])
		})
	default:
		panic(fmt.Sprintf("bench: unknown value-size workload %q", workload))
	}
	runtime.ReadMemStats(&ms1)
	ops := res.Ops
	if ops == 0 {
		ops = 1
	}
	return BenchEntry{
		Workload:     workload,
		Engine:       "RedoDB",
		Shards:       1,
		Threads:      threads,
		ValueSize:    size,
		Path:         path,
		OpsPerSec:    res.OpsPerSec(),
		PWBsPerTx:    res.PWBsPerOp(),
		PFencesPerTx: res.FencesPerOp(),
		AllocsPerOp:  float64(ms1.Mallocs-ms0.Mallocs) / float64(ops),
		P50Ns:        res.Lat.P50Ns,
		P99Ns:        res.Lat.P99Ns,
	}
}
