package bench

import (
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/pmem"
	"repro/internal/shardeddb"
)

// shardedKV adapts the sharded RedoDB front-end to the KV harness.
type shardedKV struct {
	db       *shardeddb.DB
	group    *pmem.Group
	sessions []*shardeddb.Session
	shards   int
}

// NewShardedKV creates a sharded RedoDB sized for cfg: each shard's regions
// get a 2/K slice of the configured words (the allocator's power-of-two
// rounding wants headroom over a perfect 1/K split), floored so tiny
// configurations still format.
func NewShardedKV(cfg DBConfig, maxThreads, shards int) KV {
	words := cfg.Words / uint64(shards) * 2
	if words < 1<<13 {
		words = 1 << 13
	}
	g := shardeddb.NewGroup(shardeddb.GroupConfig{
		Shards:     shards,
		Threads:    maxThreads,
		ShardWords: words,
		Mode:       pmem.Direct,
		Latency:    cfg.Lat,
	})
	db := shardeddb.Open(g, shardeddb.Options{Threads: maxThreads})
	kv := &shardedKV{db: db, group: g, shards: shards, sessions: make([]*shardeddb.Session, maxThreads)}
	for i := range kv.sessions {
		kv.sessions[i] = db.Session(i)
	}
	return kv
}

func (k *shardedKV) Name() string                 { return fmt.Sprintf("RedoDB-x%d", k.shards) }
func (k *shardedKV) Put(tid int, key, val []byte) { k.sessions[tid].Put(key, val) }
func (k *shardedKV) Get(tid int, key []byte) ([]byte, bool) {
	return k.sessions[tid].Get(key)
}
func (k *shardedKV) Count(tid int) uint64  { return k.sessions[tid].Len() }
func (k *shardedKV) NVMBytes() uint64      { return k.group.NVMBytes() }
func (k *shardedKV) VolatileBytes() uint64 { return 0 }
func (k *shardedKV) srcOf() StatSource     { return k.group }

// FigSharding prints the scaling figure: fillrandom and readrandom
// throughput of the sharded front-end at each shard count, with unsharded
// RedoDB as the 1-shard baseline sanity row.
func FigSharding(cfg DBConfig, shardCounts []int) {
	for _, workload := range []string{"fillrandom", "readrandom"} {
		PrintHeader(cfg.Out, fmt.Sprintf("Sharding — %s, %d keys", workload, cfg.Keys))
		for _, shards := range shardCounts {
			for _, threads := range cfg.Threads {
				res := runSharded(cfg, workload, shards, threads)
				PrintResult(cfg.Out, res)
			}
		}
	}
}

// runSharded measures one (workload, shards, threads) cell.
func runSharded(cfg DBConfig, workload string, shards, threads int) Result {
	kv := NewShardedKV(cfg, threads, shards)
	src := kv.(pooled).srcOf()
	rngs := makeRNGs(threads)
	if workload == "readrandom" {
		fill(kv, cfg.Keys)
	}
	src.ResetStats()
	var res Result
	switch workload {
	case "fillrandom":
		res = RunThroughputLat(src, threads, cfg.Dur, func(tid, i int) {
			kv.Put(tid, dbKey(rngs[tid].intn(cfg.Keys)), dbValue)
		})
	case "readrandom":
		res = RunThroughputLat(src, threads, cfg.Dur, func(tid, i int) {
			kv.Get(tid, dbKey(rngs[tid].intn(cfg.Keys)))
		})
	default:
		panic("bench: unknown sharded workload " + workload)
	}
	res.Engine = kv.Name()
	return res
}

// BenchEntry is one tracked benchmark measurement, serialized to the
// checked-in BENCH_*.json trajectory files.
type BenchEntry struct {
	Workload     string  `json:"workload"`
	Engine       string  `json:"engine"`
	Shards       int     `json:"shards"`
	Threads      int     `json:"threads"`
	OpsPerSec    float64 `json:"ops_per_sec"`
	PWBsPerTx    float64 `json:"pwbs_per_tx"`
	PFencesPerTx float64 `json:"pfences_per_tx"`
	// Per-operation latency percentiles from the same run (PR 4): the
	// trajectory tracks tail behavior alongside the instruction parity.
	P50Ns int64 `json:"p50_ns"`
	P99Ns int64 `json:"p99_ns"`
	// Value-size sweep fields (PR 5). ValueSize is the payload size in
	// bytes; Path is "bulk" (aggregated stores) or "word" (the per-word
	// ablation); AllocsPerOp is heap allocations per operation.
	ValueSize   int     `json:"value_size,omitempty"`
	Path        string  `json:"path,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
	// Buffered-durability sweep field (PR 8): Sync batch depth per worker
	// when Path is "buffered"; 0 on the synchronous baseline cell.
	Depth int `json:"depth,omitempty"`
	// Network serving sweep fields (PR 9, emitted by cmd/kvload): offered
	// open-loop arrival rate (0 in closed-loop cells), connection count,
	// server-side service-time percentiles from the server's own STATS
	// histograms, and the cell's error count (client-observed failures
	// plus server-reported errors plus exactly-once verification
	// mismatches — the trajectory asserts it stays zero). For these cells
	// OpsPerSec is the achieved completion rate and P50Ns/P99Ns are
	// client-observed (queueing included under open loop).
	OfferedPerSec float64 `json:"offered_per_sec,omitempty"`
	Conns         int     `json:"conns,omitempty"`
	ServerP50Ns   int64   `json:"server_p50_ns,omitempty"`
	ServerP99Ns   int64   `json:"server_p99_ns,omitempty"`
	Errors        uint64  `json:"errors,omitempty"`
	// Space sweep fields (the Fig-8-style figure): bytes of NVMM per key
	// after filling ValueSize-byte values (Path is "arena"; the "legacy"
	// cells of BENCH_pr10.json record the removed power-of-two allocator),
	// and the arena allocator's external fragmentation — the percentage of
	// claimed span capacity with no live block in it (0 in the legacy
	// cells, which had no class breakdown).
	BytesPerKey float64 `json:"bytes_per_key,omitempty"`
	FragPct     float64 `json:"frag_pct,omitempty"`
}

// ShardingEntries runs the tracked-benchmark cells: fillrandom and
// readrandom at each shard count.
func ShardingEntries(cfg DBConfig, shardCounts []int, threads int) []BenchEntry {
	var out []BenchEntry
	for _, workload := range []string{"fillrandom", "readrandom"} {
		for _, shards := range shardCounts {
			res := runSharded(cfg, workload, shards, threads)
			out = append(out, BenchEntry{
				Workload:     workload,
				Engine:       res.Engine,
				Shards:       shards,
				Threads:      threads,
				OpsPerSec:    res.OpsPerSec(),
				PWBsPerTx:    res.PWBsPerOp(),
				PFencesPerTx: res.FencesPerOp(),
				P50Ns:        res.Lat.P50Ns,
				P99Ns:        res.Lat.P99Ns,
			})
		}
	}
	return out
}

// WriteBenchJSON writes entries to path as indented JSON.
func WriteBenchJSON(path string, entries []BenchEntry) error {
	b, err := json.MarshalIndent(entries, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
