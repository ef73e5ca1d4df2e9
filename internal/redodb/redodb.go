// Package redodb implements RedoDB, the paper's wait-free in-memory
// key-value store with durable linearizable transactions (§6): a resizable
// persistent hash map annotated with the transactional semantics of
// RedoOpt-PTM, extended with iterator capabilities, offering a
// LevelDB/RocksDB-style API (Put/Get/Delete/WriteBatch/Iterator).
//
// Every operation is a durable linearizable transaction with bounded
// wait-free progress, and the store has null recovery: reopening a pool
// after a crash adopts the last persisted state immediately ("the first
// persistent key-value store with bounded wait-free progress").
package redodb

import (
	"time"

	"repro/internal/core/redo"
	"repro/internal/detect"
	"repro/internal/obs"
	"repro/internal/palloc"
	"repro/internal/pmem"
	"repro/internal/ptm"
)

// Hash map layout.
//
// Header block: [bucketsAddr, nbuckets, count].
// Bucket array: nbuckets chain heads.
// Node block: [hash, keyAddr, valAddr, next].
const (
	hdrBuckets = 0
	hdrNB      = 1
	hdrCount   = 2

	ndHash = 0
	ndKey  = 1
	ndVal  = 2
	ndNext = 3

	minBuckets = 64
)

// Persistent root slots (ptm.RootAddr indices). They are fixed by the
// on-media format, so every image — standalone or a shard of shardeddb —
// uses the same three.
const (
	mapSlot    = 0 // hash-map header
	tagSlot    = 1 // last applied coordinator batch tag (WriteOptions.Tag)
	detectSlot = 2 // request-dedup table behind detectable writes
)

var (
	mapRoot = ptm.RootAddr(mapSlot)
	tagRoot = ptm.RootAddr(tagSlot)
	dedup   = detect.Table{RootSlot: detectSlot}
)

// Options parameterizes Open.
type Options struct {
	// Threads is the number of concurrent sessions (thread ids).
	Threads int
	// Features, when non-nil, overrides RedoOpt-PTM's optimization preset
	// (ablation studies — e.g. the bulk-store vs word-store comparison).
	Features *redo.Features
	// Profile, when non-nil, accumulates the engine's phase breakdown.
	Profile *ptm.Profile
	// Buffered selects relaxed durability (group commit): operations
	// commit into an in-flight epoch and become durable when the
	// persister advances the watermark — see buffered.go. Requires a
	// pool with at least 3 regions (Threads+2 recommended).
	Buffered bool
	// PersistEvery sets the background persister cadence in buffered
	// mode: 0 means the 200µs default, negative disables the goroutine
	// entirely (caller-driven: Sync/Persist seal epochs on the calling
	// thread — deterministic, for crash sweeps and alloc pins).
	PersistEvery time.Duration
}

// DB is a RedoDB instance.
type DB struct {
	eng  *redo.Redo
	pool *pmem.Pool
	buf  *buffered // nil in synchronous mode
}

// Open creates or recovers a RedoDB over pool. The pool should have
// Threads+1 regions (the engine's replica bound). The construction is
// RedoOpt-PTM, as in the paper.
func Open(pool *pmem.Pool, opts Options) *DB {
	if opts.Threads <= 0 {
		opts.Threads = 1
	}
	pool.TraceEvent(obs.KindRecoveryBegin, -1, -1, 0, 0, 0)
	eng := redo.New(pool, redo.Config{
		Threads:  opts.Threads,
		Variant:  redo.Opt,
		Features: opts.Features,
		Profile:  opts.Profile,
		Buffered: opts.Buffered,
	})
	db := &DB{eng: eng, pool: pool}
	if opts.Buffered {
		db.buf = &buffered{kick: make(chan struct{}, 1)}
		if opts.PersistEvery >= 0 {
			every := opts.PersistEvery
			if every == 0 {
				every = defaultPersistEvery
			}
			db.buf.stop = make(chan struct{})
			db.buf.done = make(chan struct{})
			go db.persistLoop(every)
		}
	}
	// Reject a foreign heap format or a structurally-corrupt recovered map
	// with a typed error before running any transaction that would chase
	// its pointers.
	db.validate()
	// Reachability pass over the arena heap: reclaim blocks a crash
	// stranded between allocation and publication (no-op on a clean heap).
	db.recoverHeap()
	pool.TraceEvent(obs.KindRecoveryEnd, -1, -1, 0, 0, 0)
	// Initialize the map on first open; a recovered pool already holds it.
	db.eng.Update(0, func(m ptm.Mem) uint64 {
		if m.Load(mapRoot) != 0 {
			return 0
		}
		hdr := m.Alloc(3)
		buckets := m.Alloc(minBuckets)
		if hdr == 0 || buckets == 0 {
			panic("redodb: pool too small for an empty database")
		}
		ptm.ZeroWords(m, buckets, minBuckets)
		m.Store(hdr+hdrBuckets, buckets)
		m.Store(hdr+hdrNB, minBuckets)
		m.Store(hdr+hdrCount, 0)
		m.Store(mapRoot, hdr)
		return 0
	})
	return db
}

// Engine exposes the underlying construction (for stats and ablations).
func (db *DB) Engine() *redo.Redo { return db.eng }

// Session returns a handle bound to thread id tid (0..Threads-1). Each
// session must be used by at most one goroutine at a time.
func (db *DB) Session(tid int) *Session {
	if tid < 0 || tid >= db.eng.MaxThreads() {
		panic("redodb: session id out of range")
	}
	s := &Session{db: db, tid: tid}
	// Bind the optimistic-read closures once: TryRead runs them only on
	// this session's goroutine, so they may read the scratch fields below
	// without the cloning that announced closures require, and reusing the
	// bound method values keeps the read hot path allocation-free.
	s.getFn = s.getRead
	s.hasFn = s.hasRead
	return s
}

// NVMUsedBytes reports the persistent-heap bytes in use (Fig. 8's NVMM
// usage, including the allocator's size-class rounding waste).
func (db *DB) NVMUsedBytes() uint64 {
	words := db.eng.Read(0, func(m ptm.Mem) uint64 {
		return palloc.InUseWords(memShim{m})
	})
	return words * 8
}

// NVMTotalBytes sums the used heap bytes across every replica region that
// holds data — the paper's Fig. 8 NVMM metric, where RedoDB pays for its
// multiple replicas (in practice only the first two under the timed
// funnel) plus the allocator's size-class rounding waste (at most 25%
// per block under the arena classes).
func (db *DB) NVMTotalBytes() uint64 {
	var total uint64
	for i := 0; i < db.pool.Regions(); i++ {
		m := regionMem{db.pool.Region(i)}
		if palloc.IsFormatted(m) {
			total += palloc.InUseWords(m) * 8
		}
	}
	return total
}

// regionMem adapts a raw region to palloc.Mem for quiesced metadata reads.
type regionMem struct{ r *pmem.Region }

func (s regionMem) Load(addr uint64) uint64 { return s.r.Load(addr) }
func (s regionMem) Store(addr, val uint64)  { s.r.Store(addr, val) }

// memShim adapts ptm.Mem to palloc.Mem for metadata reads.
type memShim struct{ m ptm.Mem }

func (s memShim) Load(addr uint64) uint64 { return s.m.Load(addr) }
func (s memShim) Store(addr, val uint64)  { s.m.Store(addr, val) }

// hashKey is FNV-1a, with the result forced non-zero so 0 can mean "empty".
func hashKey(k []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, b := range k {
		h ^= uint64(b)
		h *= 1099511628211
	}
	if h == 0 {
		h = 1
	}
	return h
}

// findNode returns the node holding key (0 if absent) and its predecessor
// (0 if the node is the chain head).
func findNode(m ptm.Mem, key []byte, h uint64) (node, prev, slot uint64) {
	hdr := m.Load(mapRoot)
	nb := m.Load(hdr + hdrNB)
	slot = m.Load(hdr+hdrBuckets) + (h & (nb - 1))
	n := m.Load(slot)
	for n != 0 {
		if m.Load(n+ndHash) == h && ptm.BytesEqual(m, m.Load(n+ndKey), key) {
			return n, prev, slot
		}
		prev = n
		n = m.Load(n + ndNext)
	}
	return 0, 0, slot
}

// putLocked inserts or overwrites key inside an update transaction.
// Returns 1 if a new key was inserted, 0 on overwrite.
func putLocked(m ptm.Mem, key, val []byte) uint64 {
	h := hashKey(key)
	node, _, slot := findNode(m, key, h)
	if node != 0 {
		old := m.Load(node + ndVal)
		va := ptm.AllocBytes(m, val)
		if va == 0 {
			panic("redodb: persistent heap exhausted")
		}
		m.Store(node+ndVal, va)
		m.Free(old)
		return 0
	}
	ka := ptm.AllocBytes(m, key)
	va := ptm.AllocBytes(m, val)
	nd := m.Alloc(4)
	if ka == 0 || va == 0 || nd == 0 {
		panic("redodb: persistent heap exhausted")
	}
	m.Store(nd+ndHash, h)
	m.Store(nd+ndKey, ka)
	m.Store(nd+ndVal, va)
	m.Store(nd+ndNext, m.Load(slot))
	m.Store(slot, nd)
	hdr := m.Load(mapRoot)
	count := m.Load(hdr+hdrCount) + 1
	m.Store(hdr+hdrCount, count)
	if count > m.Load(hdr+hdrNB) {
		growLocked(m)
	}
	return 1
}

// deleteLocked removes key; returns 1 if it was present.
func deleteLocked(m ptm.Mem, key []byte) uint64 {
	h := hashKey(key)
	node, prev, slot := findNode(m, key, h)
	if node == 0 {
		return 0
	}
	if prev == 0 {
		m.Store(slot, m.Load(node+ndNext))
	} else {
		m.Store(prev+ndNext, m.Load(node+ndNext))
	}
	m.Free(m.Load(node + ndKey))
	m.Free(m.Load(node + ndVal))
	m.Free(node)
	hdr := m.Load(mapRoot)
	m.Store(hdr+hdrCount, m.Load(hdr+hdrCount)-1)
	return 1
}

// growLocked doubles the bucket array and rehashes, inside the caller's
// transaction (atomic and durable like any other update).
func growLocked(m ptm.Mem) {
	hdr := m.Load(mapRoot)
	oldB := m.Load(hdr + hdrBuckets)
	oldNB := m.Load(hdr + hdrNB)
	newNB := oldNB * 2
	newB := m.Alloc(newNB)
	if newB == 0 {
		return // growing is optional; stay at the current size
	}
	ptm.ZeroWords(m, newB, newNB)
	for i := uint64(0); i < oldNB; i++ {
		n := m.Load(oldB + i)
		for n != 0 {
			next := m.Load(n + ndNext)
			s := newB + (m.Load(n+ndHash) & (newNB - 1))
			m.Store(n+ndNext, m.Load(s))
			m.Store(s, n)
			n = next
		}
	}
	m.Store(hdr+hdrBuckets, newB)
	m.Store(hdr+hdrNB, newNB)
	m.Free(oldB)
}
