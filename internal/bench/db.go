package bench

import (
	"fmt"
	"io"
	"time"

	"repro/internal/pmem"
	"repro/internal/redodb"
	"repro/internal/rockssim"
)

// KV abstracts the two key-value engines of Figs. 7–9.
type KV interface {
	Name() string
	Put(tid int, key, val []byte)
	Get(tid int, key []byte) ([]byte, bool)
	Count(tid int) uint64
	NVMBytes() uint64
	VolatileBytes() uint64
}

// DBConfig parameterizes the db_bench-style runs: 16-byte keys and 100-byte
// values over `Keys` distinct keys, as in the paper.
type DBConfig struct {
	Keys    uint64
	Threads []int
	Dur     time.Duration
	Lat     pmem.LatencyModel
	Words   uint64 // region words for each engine's pool
	Out     io.Writer
}

// redoKV adapts RedoDB.
type redoKV struct {
	db       *redodb.DB
	pool     *pmem.Pool
	sessions []*redodb.Session
}

// NewRedoKV creates a RedoDB instance sized for cfg.
func NewRedoKV(cfg DBConfig, maxThreads int) KV {
	pool := pmem.New(pmem.Config{
		Mode: pmem.Direct, RegionWords: cfg.Words, Regions: maxThreads + 1, Latency: cfg.Lat,
	})
	db := redodb.Open(pool, redodb.Options{Threads: maxThreads})
	kv := &redoKV{db: db, pool: pool, sessions: make([]*redodb.Session, maxThreads)}
	for i := range kv.sessions {
		kv.sessions[i] = db.Session(i)
	}
	return kv
}

func (k *redoKV) Name() string                 { return "RedoDB" }
func (k *redoKV) Put(tid int, key, val []byte) { k.sessions[tid].Put(key, val) }
func (k *redoKV) Get(tid int, key []byte) ([]byte, bool) {
	return k.sessions[tid].Get(key)
}
func (k *redoKV) Count(tid int) uint64  { return k.sessions[tid].Len() }
func (k *redoKV) NVMBytes() uint64      { return k.db.NVMUsedBytes() }
func (k *redoKV) VolatileBytes() uint64 { return k.db.Engine().VolatileBytes() }

// rocksKV adapts RocksDB-sim.
type rocksKV struct {
	db   *rockssim.DB
	pool *pmem.Pool
}

// NewRocksKV creates a RocksDB-sim instance sized for cfg. When a latency
// model is active, the fsync device barrier (~4µs on Optane ext4) is
// modelled too.
func NewRocksKV(cfg DBConfig) KV {
	pool := pmem.New(pmem.Config{
		Mode: pmem.Direct, RegionWords: cfg.Words, Regions: 3, Latency: cfg.Lat,
	})
	opts := rockssim.Options{}
	if cfg.Lat.PWB > 0 {
		opts.SyncLatency = 4 * time.Microsecond
	}
	return &rocksKV{db: rockssim.Open(pool, opts), pool: pool}
}

func (k *rocksKV) Name() string                 { return "RocksDB-sim" }
func (k *rocksKV) Put(tid int, key, val []byte) { k.db.Put(key, val) }
func (k *rocksKV) Get(tid int, key []byte) ([]byte, bool) {
	return k.db.Get(key)
}
func (k *rocksKV) Count(tid int) uint64  { return uint64(k.db.Len()) }
func (k *rocksKV) NVMBytes() uint64      { return k.db.UsedNVMBytes() }
func (k *rocksKV) VolatileBytes() uint64 { return k.db.VolatileBytes() }

func (k *redoKV) srcOf() StatSource  { return k.pool }
func (k *rocksKV) srcOf() StatSource { return k.pool }

// pooled lets the runners reach the underlying stat source (a pool, or a
// pool group for the sharded engine).
type pooled interface{ srcOf() StatSource }

// regionWords sizes a region for cfg.Keys pairs of size-byte values: ~1.5
// words per value word (arena class rounding and large-page slack) plus 64
// for the node, key and buckets, with 1<<16 of headroom, doubled up from
// cfg.Words.
func regionWords(cfg DBConfig, size int) uint64 {
	words := max(cfg.Words, 1<<16)
	for words < cfg.Keys*(uint64(size)/8*3/2+64)+1<<16 {
		words *= 2
	}
	return words
}

// dbKey renders db_bench's 16-byte keys.
func dbKey(i uint64) []byte { return []byte(fmt.Sprintf("%016d", i)) }

var dbValue = make([]byte, 100)

func init() {
	for i := range dbValue {
		dbValue[i] = byte('a' + i%26)
	}
}

// fill loads the database with cfg.Keys sequentially-named keys (single
// threaded, like db_bench's fill phases before read benchmarks).
func fill(kv KV, keys uint64) {
	for i := uint64(0); i < keys; i++ {
		kv.Put(0, dbKey(i), dbValue)
	}
}

// Fig7 regenerates Figure 7: readrandom, readwhilewriting and overwrite.
func Fig7(cfg DBConfig) {
	for _, workload := range []string{"readrandom", "readwhilewriting", "overwrite"} {
		PrintHeader(cfg.Out, fmt.Sprintf("Fig 7 — %s, %d keys", workload, cfg.Keys))
		for _, mk := range []func() KV{
			func() KV { return NewRocksKV(cfg) },
			func() KV { return NewRedoKV(cfg, maxOf(cfg.Threads)+1) },
		} {
			for _, threads := range cfg.Threads {
				kv := mk()
				fill(kv, cfg.Keys)
				pool := kv.(pooled).srcOf()
				pool.ResetStats()
				rngs := makeRNGs(threads + 1)
				var res Result
				switch workload {
				case "readrandom":
					res = RunThroughput(pool, threads, cfg.Dur, func(tid, i int) {
						kv.Get(tid, dbKey(rngs[tid].intn(cfg.Keys)))
					})
				case "readwhilewriting":
					// One extra thread continuously overwrites.
					stop := make(chan struct{})
					writerDone := make(chan struct{})
					wtid := threads
					go func() {
						defer close(writerDone)
						for {
							select {
							case <-stop:
								return
							default:
								kv.Put(wtid, dbKey(rngs[wtid].intn(cfg.Keys)), dbValue)
							}
						}
					}()
					res = RunThroughput(pool, threads, cfg.Dur, func(tid, i int) {
						kv.Get(tid, dbKey(rngs[tid].intn(cfg.Keys)))
					})
					close(stop)
					<-writerDone
				case "overwrite":
					res = RunThroughput(pool, threads, cfg.Dur, func(tid, i int) {
						kv.Put(tid, dbKey(rngs[tid].intn(cfg.Keys)), dbValue)
					})
				}
				res.Engine = kv.Name()
				PrintResult(cfg.Out, res)
			}
		}
	}
}

// Fig8 regenerates Figure 8: volatile and non-volatile memory usage of
// fillrandom, and the recovery time after a simulated failure (reopening
// the pool and executing the first transaction, which for RedoDB triggers
// the replica copy).
func Fig8(cfg DBConfig) {
	fmt.Fprintf(cfg.Out, "\n# Fig 8 — fillrandom memory usage and recovery, %d keys\n", cfg.Keys)
	fmt.Fprintf(cfg.Out, "%-14s %16s %16s %16s\n", "engine", "volatile(MB)", "nvmm(MB)", "recovery")

	// RocksDB-sim.
	rpool := pmem.New(pmem.Config{Mode: pmem.Direct, RegionWords: cfg.Words, Regions: 3, Latency: cfg.Lat})
	rdb := rockssim.Open(rpool, rockssim.Options{})
	rngs := makeRNGs(1)
	for i := uint64(0); i < cfg.Keys; i++ {
		rdb.Put(dbKey(rngs[0].intn(cfg.Keys)), dbValue)
	}
	rNVM := rdb.UsedNVMBytes()
	t0 := time.Now()
	rdb2 := rockssim.Open(rpool, rockssim.Options{})
	rdb2.Put(dbKey(0), dbValue)
	rRec := time.Since(t0)
	fmt.Fprintf(cfg.Out, "%-14s %16.2f %16.2f %16s\n", rdb.Name(),
		float64(rdb2.VolatileBytes())/1e6, float64(rNVM)/1e6, rRec)

	// RedoDB.
	threads := maxOf(cfg.Threads) + 1
	dpool := pmem.New(pmem.Config{Mode: pmem.Direct, RegionWords: cfg.Words, Regions: threads + 1, Latency: cfg.Lat})
	ddb := redodb.Open(dpool, redodb.Options{Threads: threads})
	s := ddb.Session(0)
	for i := uint64(0); i < cfg.Keys; i++ {
		s.Put(dbKey(rngs[0].intn(cfg.Keys)), dbValue)
	}
	nvm := ddb.NVMTotalBytes()
	vol := ddb.Engine().VolatileBytes()
	t0 = time.Now()
	ddb2 := redodb.Open(dpool, redodb.Options{Threads: threads})
	ddb2.Session(0).Put(dbKey(0), dbValue)
	dRec := time.Since(t0)
	fmt.Fprintf(cfg.Out, "%-14s %16.2f %16.2f %16s\n", "RedoDB",
		float64(vol)/1e6, float64(nvm)/1e6, dRec)
}

// Fig9 regenerates Figure 9: fillrandom throughput (left) and the number of
// pwb (clwb) instructions it issues (right).
func Fig9(cfg DBConfig) {
	PrintHeader(cfg.Out, fmt.Sprintf("Fig 9 — fillrandom, %d keys", cfg.Keys))
	for _, mk := range []func() KV{
		func() KV { return NewRocksKV(cfg) },
		func() KV { return NewRedoKV(cfg, maxOf(cfg.Threads)) },
	} {
		for _, threads := range cfg.Threads {
			kv := mk()
			pool := kv.(pooled).srcOf()
			pool.ResetStats()
			rngs := makeRNGs(threads)
			res := RunThroughput(pool, threads, cfg.Dur, func(tid, i int) {
				kv.Put(tid, dbKey(rngs[tid].intn(cfg.Keys)), dbValue)
			})
			res.Engine = kv.Name()
			PrintResult(cfg.Out, res)
		}
	}
}

func maxOf(xs []int) int {
	m := 0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// ReopenRedo simulates the Fig. 8 recovery measurement on an existing
// RedoDB: a fresh engine is constructed over the same pool (null recovery)
// and the first update transaction — which rebuilds a replica by copy — is
// executed.
func ReopenRedo(kv KV) {
	r, ok := kv.(*redoKV)
	if !ok {
		panic("bench: ReopenRedo needs a RedoDB instance")
	}
	db := redodb.Open(r.pool, redodb.Options{Threads: len(r.sessions)})
	db.Session(0).Put(dbKey(0), dbValue)
}
