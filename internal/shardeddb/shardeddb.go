// Package shardeddb implements a sharded RedoDB: a LevelDB-style KV
// front-end that hash-partitions keys across K independent RedoDB instances,
// each backed by its own simulated pmem pool. The paper's RedoDB serializes
// every update through one flat-combining instance, capping update
// throughput near single-writer speed; sharding keeps each combining
// instance small and runs many of them in parallel, the scaling direction
// suggested by both flat-combining persistent structures (Rusanovsky et al.)
// and delay-free persistence (Ben-David et al.).
//
// Single-key operations (Put/Get/Has/Delete) route to one shard and inherit
// RedoDB's bounded wait-free progress unchanged — no cross-shard
// coordination is on their path. Cross-shard WriteBatch is made atomic with
// a persistent batch-intent record in a dedicated coordinator pool: the
// batch is logged durably before any shard applies its sub-batch, each
// sub-batch carries the batch sequence number as a per-shard tag, and Open
// replays or discards a surviving intent so a crash between per-shard
// commits never exposes a torn batch (see DESIGN.md "Sharding and
// cross-shard atomicity"). Iterators merge per-shard snapshots and validate
// them against the tags, so a batch is always observed all-or-nothing.
package shardeddb

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/pmem"
	"repro/internal/redodb"
)

// Options parameterizes Open.
type Options struct {
	// Threads is the number of concurrent sessions (thread ids).
	Threads int
	// Buffered selects relaxed durability on every shard (group commit
	// with per-shard durable-epoch watermarks — see buffered.go). The
	// shard pools need Threads+2 regions (GroupConfig.Buffered).
	Buffered bool
	// PersistEvery sets the group persister cadence in buffered mode:
	// 0 means a 200µs default, negative disables the goroutine
	// (caller-driven: Sync/Persist seal epochs on the calling thread).
	PersistEvery time.Duration
}

// GroupConfig describes the pool geometry NewGroup builds for a sharded DB:
// one coordinator pool followed by Shards shard pools.
type GroupConfig struct {
	Shards     int
	Threads    int
	ShardWords uint64 // words per shard region (default 1<<14)
	Mode       pmem.Mode
	Latency    pmem.LatencyModel
	// Buffered sizes the shard pools for relaxed durability: Threads+2
	// regions each (curComb + the pinned durable replica + writers)
	// instead of the synchronous Threads+1.
	Buffered bool
}

// NewGroup allocates the pmem group for a sharded DB: pool 0 is the
// coordinator (one region holding the batch-intent record), pools 1..Shards
// are the shard pools (Threads+1 regions each, the redo engine's replica
// bound). All pools share one failure domain.
func NewGroup(cfg GroupConfig) *pmem.Group {
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	if cfg.Threads <= 0 {
		cfg.Threads = 1
	}
	if cfg.ShardWords == 0 {
		cfg.ShardWords = 1 << 14
	}
	pools := make([]*pmem.Pool, cfg.Shards+1)
	pools[0] = pmem.New(pmem.Config{
		Mode: cfg.Mode, RegionWords: coordWords, Regions: 1, Latency: cfg.Latency,
	})
	regions := cfg.Threads + 1
	if cfg.Buffered {
		regions = cfg.Threads + 2
	}
	for i := 1; i <= cfg.Shards; i++ {
		pools[i] = pmem.New(pmem.Config{
			Mode: cfg.Mode, RegionWords: cfg.ShardWords, Regions: regions, Latency: cfg.Latency,
		})
	}
	return pmem.NewGroup(pools...)
}

// DB is a sharded RedoDB instance.
type DB struct {
	group    *pmem.Group
	coord    *pmem.Region // batch-intent record (region 0 of pool 0)
	shards   []*redodb.DB
	buffered bool
	buf      *bufferedState // non-nil only with a background persister

	// batchMu serializes cross-shard batches (and recovery against them).
	// Single-key operations never take it.
	batchMu sync.Mutex
	// nextSeq is the sequence number the next cross-shard batch will use;
	// guarded by batchMu.
	nextSeq uint64
	// lastCommitted mirrors the durable lastCommitted sequence number in
	// volatile memory, published only after a batch is fully applied on
	// every shard. Iterators read it to validate their snapshots.
	lastCommitted atomic.Uint64
}

// Open creates or recovers a sharded DB over a group laid out as NewGroup
// does: pool 0 the coordinator, pools 1..K the shards. Any batch intent that
// survived a crash is rolled forward (if not yet completed) or discarded (if
// already completed) before Open returns, so the visible state never holds a
// torn batch.
func Open(g *pmem.Group, opts Options) *DB {
	if g.Len() < 2 {
		panic("shardeddb: group needs a coordinator pool and at least one shard pool")
	}
	if opts.Threads <= 0 {
		opts.Threads = 1
	}
	db := &DB{group: g, coord: g.Pool(0).Region(0), buffered: opts.Buffered}
	g.Pool(0).TraceEvent(obs.KindRecoveryBegin, -1, -1, 0, 0, 0)
	db.shards = make([]*redodb.DB, g.Len()-1)
	for i := range db.shards {
		// Buffered shards are sealed by the group persister (or the
		// caller), every shard in turn.
		db.shards[i] = redodb.Open(g.Pool(i+1), redodb.Options{Threads: opts.Threads, Buffered: opts.Buffered})
	}
	db.recoverIntent()
	g.Pool(0).TraceEvent(obs.KindRecoveryEnd, -1, -1, 0, 0, 0)
	if opts.Buffered && opts.PersistEvery >= 0 {
		every := opts.PersistEvery
		if every == 0 {
			every = 200 * time.Microsecond
		}
		db.buf = &bufferedState{stop: make(chan struct{}), done: make(chan struct{})}
		go db.persistLoop(every)
	}
	return db
}

// Group exposes the underlying pool group (for stats and crash harnesses).
func (db *DB) Group() *pmem.Group { return db.group }

// Shards reports the number of shards.
func (db *DB) Shards() int { return len(db.shards) }

// AllocReconcile audits every shard's allocator against its reachable
// blocks (redodb.DB.AllocReconcile), returning the first discrepancy.
func (db *DB) AllocReconcile() error {
	for i, s := range db.shards {
		if err := s.AllocReconcile(); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return nil
}

// Session returns a handle bound to thread id tid. Each session must be used
// by at most one goroutine at a time.
func (db *DB) Session(tid int) *Session {
	sess := make([]*redodb.Session, len(db.shards))
	for i, sh := range db.shards {
		sess[i] = sh.Session(tid)
	}
	return &Session{db: db, sess: sess, subs: make([]WriteBatch, len(db.shards))}
}

// Session is a per-thread handle to the sharded database.
type Session struct {
	db   *DB
	sess []*redodb.Session // one per shard, same thread id
	subs []WriteBatch      // per-shard sub-batches, reused by split
}

// shardOf maps a key to its shard. The multiplicative remix decorrelates the
// shard index from the FNV bits redodb's bucket chains use, so a shard's
// keys still spread over all of its buckets.
func (s *Session) shardOf(key []byte) int {
	h := uint64(14695981039346656037)
	for _, b := range key {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return int((h * 0x9e3779b97f4a7c15 >> 32) % uint64(len(s.sess)))
}

// ShardOf reports the shard that owns key. The serving layer uses it to
// attribute an operation's commit epoch to the right per-shard watermark.
func (s *Session) ShardOf(key []byte) int { return s.shardOf(key) }

// Put stores (key, value) in the owning shard — one wait-free RedoDB update.
func (s *Session) Put(key, value []byte) { s.sess[s.shardOf(key)].Put(key, value) }

// Get returns the value stored under key, or (nil, false) if absent.
func (s *Session) Get(key []byte) ([]byte, bool) { return s.sess[s.shardOf(key)].Get(key) }

// Has reports whether key is present.
func (s *Session) Has(key []byte) bool { return s.sess[s.shardOf(key)].Has(key) }

// Delete removes key, reporting whether it was present.
func (s *Session) Delete(key []byte) bool { return s.sess[s.shardOf(key)].Delete(key) }

// Len returns the total number of keys across all shards. Each per-shard
// count is a durable linearizable read; the sum is not a cross-shard
// snapshot (use an Iterator for one).
func (s *Session) Len() uint64 {
	var n uint64
	for _, sh := range s.sess {
		n += sh.Len()
	}
	return n
}
