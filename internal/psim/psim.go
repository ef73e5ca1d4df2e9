// Package psim implements a P-Sim-style copy-on-write persistent universal
// construction (Fatourou & Kallimanis's highly-efficient wait-free universal
// construction, adapted to persistence). The paper's §1 splits wait-free
// universal constructions into two families — copy-on-write and
// queue-of-operations — and argues that CoW "is inefficient for large
// objects when converted to a persistent universal construction (PUC), due
// to the high number of pwb operations that must be executed for each cache
// line of the new object". This package makes that claim measurable.
//
// The construction: operations are announced in per-thread slots; the winner
// of a sequence CAS becomes the combiner (Herlihy's combining consensus, the
// same mechanism Redo-PTM builds on), copies the entire current object into
// the inactive area, applies every announced operation to the copy, flushes
// the *whole* copy, fences, and publishes the new area with a persisted
// header — two fences per combined batch, but O(object size) pwbs per
// transition, which is exactly the cost CX-PUC avoids by keeping per-replica
// cursors and Redo-PTM avoids with physical logs.
//
// Like CX-PUC it needs no store interposition and accepts closures.
package psim

import (
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/palloc"
	"repro/internal/pmem"
	"repro/internal/ptm"
)

// Header slot: area<<1 | valid. The named area is the current, fully
// durable object.
const headerSlot = 0

// desc is an announced operation.
type desc struct {
	fn       func(ptm.Mem) uint64
	readOnly bool
	result   atomic.Uint64
	applied  atomic.Bool
}

// PSim is the engine. The pool must have exactly 2 regions (the alternating
// object areas).
type PSim struct {
	cfg  Config
	pool *pmem.Pool
	area [2]*pmem.Region
	cur  atomic.Int32  // current area (volatile mirror of the header)
	seq  atomic.Uint64 // even = quiescent, odd = combining
	reqs []atomic.Pointer[desc]
	// batch is the combiner's snapshot of the announced operations; only
	// the thread holding an odd seq touches it.
	batch []*desc
}

// Config parameterizes the engine.
type Config struct {
	Threads int
	Profile *ptm.Profile
}

// New creates (or recovers) a PSim instance over pool.
func New(pool *pmem.Pool, cfg Config) *PSim {
	if cfg.Threads <= 0 {
		panic("psim: Threads must be positive")
	}
	if pool.Regions() != 2 {
		panic("psim: pool must have exactly 2 regions")
	}
	p := &PSim{
		cfg:  cfg,
		pool: pool,
		reqs: make([]atomic.Pointer[desc], cfg.Threads),
	}
	p.area[0], p.area[1] = pool.Region(0), pool.Region(1)
	pool.TraceEvent(obs.KindRecoveryBegin, -1, -1, 0, 0, 0)
	hdr := pool.PersistedHeader(headerSlot)
	if hdr&1 != 0 {
		// Null recovery: the header names a fully durable area. The
		// rewrite must still be flushed and fenced: HeaderStore only
		// updates the cached header image, and a later crash must not
		// be able to observe a stale shadow (redo and cx recovery fence
		// their header rewrites the same way).
		p.cur.Store(int32(hdr >> 1 & 1))
		pool.HeaderStore(headerSlot, hdr)
		pool.PWBHeader(headerSlot)
		pool.PSync()
		pool.TraceEvent(obs.KindHeaderPublish, -1, -1, headerSlot, 1, 0)
	} else {
		palloc.Format(rawMem{p.area[0]}, pool.RegionWords())
		meta := palloc.MetaWords(rawMem{p.area[0]})
		p.area[0].FlushRange(0, meta)
		p.area[0].PFence()
		pool.TraceEvent(obs.KindPublish, -1, 0, 0, meta, obs.PubHeap)
		pool.HeaderStore(headerSlot, 0<<1|1)
		pool.PWBHeader(headerSlot)
		pool.PSync()
		pool.TraceEvent(obs.KindHeaderPublish, -1, -1, headerSlot, 1, 0)
	}
	pool.TraceEvent(obs.KindRecoveryEnd, -1, -1, 0, 0, 0)
	return p
}

// MaxThreads implements ptm.PTM.
func (p *PSim) MaxThreads() int { return p.cfg.Threads }

// Name implements ptm.PTM.
func (p *PSim) Name() string { return "PSim-CoW" }

// Properties implements ptm.PTM: wait-free, two fences, but the log column
// is "none" — the whole object is the write-set.
func (p *PSim) Properties() ptm.Properties {
	return ptm.Properties{
		Log:         ptm.NoLog,
		Progress:    ptm.WaitFree,
		FencesPerTx: "2",
		Replicas:    "2",
	}
}

// Update implements ptm.PTM via the combining consensus.
func (p *PSim) Update(tid int, fn func(ptm.Mem) uint64) uint64 {
	txStart := now(p.cfg.Profile)
	d := &desc{fn: fn}
	p.reqs[tid].Store(d)
	for {
		if d.applied.Load() {
			p.cfg.Profile.AddTx(since(p.cfg.Profile, txStart))
			return d.result.Load()
		}
		s := p.seq.Load()
		if s%2 == 1 {
			runtime.Gosched()
			continue
		}
		if !p.seq.CompareAndSwap(s, s+1) {
			continue
		}
		p.combine(tid, s/2)
		p.seq.Store(s + 2)
		p.cfg.Profile.AddTx(since(p.cfg.Profile, txStart))
		return d.result.Load()
	}
}

// combine is the CoW transition: if the announced batch mutates, copy the
// object, apply the batch, flush everything, publish; a read-only batch
// runs directly on the stable current area. tid is the combiner's thread
// id and round the consensus round, both only used for trace events.
func (p *PSim) combine(tid int, round uint64) {
	p.pool.TraceEvent(obs.KindCombineBegin, tid, -1, 0, 0, round)
	from := int(p.cur.Load())
	src := p.area[from]
	// Snapshot the announcements once: an operation announced after this
	// scan waits for the next round, so a write can never arrive in a
	// batch that was sized as read-only (and has no copy to write to).
	hasWrite := false
	p.batch = p.batch[:0]
	for t := range p.reqs {
		if d := p.reqs[t].Load(); d != nil && !d.applied.Load() {
			p.batch = append(p.batch, d)
			hasWrite = hasWrite || !d.readOnly
		}
	}
	var dst *pmem.Region
	if hasWrite {
		dst = p.area[1-from]
		copyStart := now(p.cfg.Profile)
		used := palloc.UsedWords(rawMem{src})
		dst.CopyFrom(src, used)
		p.cfg.Profile.AddCopy(since(p.cfg.Profile, copyStart))
	}
	lambdaStart := now(p.cfg.Profile)
	for _, d := range p.batch {
		if d.readOnly {
			// Reads see the pre-batch state on the stable source
			// area (they linearize at the start of the round).
			d.result.Store(d.fn(roMem{src}))
		} else {
			d.result.Store(d.fn(rawMem{dst}))
		}
		d.applied.Store(true)
	}
	p.cfg.Profile.AddLambda(since(p.cfg.Profile, lambdaStart))
	if !hasWrite {
		p.pool.TraceEvent(obs.KindCombineEnd, tid, -1, 0, 0, 0)
		return
	}
	// Flush the entire new object — the CoW cost the paper calls out.
	flushStart := now(p.cfg.Profile)
	used := palloc.UsedWords(rawMem{dst})
	dst.FlushRange(0, used)
	dst.PFence()
	// The published range is the allocator's high-water mark — a value
	// only the execution knows, which is what makes this assertion
	// dynamic rather than static.
	p.pool.TraceEvent(obs.KindPublish, tid, 1-from, 0, used, obs.PubHeap)
	hdr := uint64(1-from)<<1 | 1
	p.pool.HeaderStore(headerSlot, hdr)
	p.pool.PWBHeader(headerSlot)
	p.pool.PSync()
	p.pool.TraceEvent(obs.KindHeaderPublish, tid, -1, headerSlot, 1, 0)
	p.pool.TraceEvent(obs.KindCurComb, tid, -1, headerSlot, 1, hdr)
	p.cfg.Profile.AddFlush(since(p.cfg.Profile, flushStart))
	p.cur.Store(int32(1 - from))
	p.pool.TraceEvent(obs.KindCombineEnd, tid, -1, 0, 0, 1)
}

// Read implements ptm.PTM: reads are announced and executed by a combiner
// on the stable area. Only combiners touch the areas, so no reader can race
// with an area being rewritten.
func (p *PSim) Read(tid int, fn func(ptm.Mem) uint64) uint64 {
	d := &desc{fn: fn, readOnly: true}
	p.reqs[tid].Store(d)
	for {
		if d.applied.Load() {
			return d.result.Load()
		}
		s := p.seq.Load()
		if s%2 == 1 {
			runtime.Gosched()
			continue
		}
		if p.seq.CompareAndSwap(s, s+1) {
			p.combine(tid, s/2)
			p.seq.Store(s + 2)
		}
	}
}

// rawMem is the direct, uninterposed view (CoW needs no tracking).
type rawMem struct {
	region *pmem.Region
}

func (m rawMem) Load(addr uint64) uint64   { return m.region.Load(addr) }
func (m rawMem) Store(addr, val uint64)    { m.region.Store(addr, val) }
func (m rawMem) Alloc(words uint64) uint64 { return palloc.Alloc(m, words) }
func (m rawMem) Free(addr uint64)          { palloc.Free(m, addr) }

// roMem rejects mutation inside read-only transactions.
type roMem struct {
	region *pmem.Region
}

func (m roMem) Load(addr uint64) uint64 { return m.region.Load(addr) }
func (m roMem) Store(addr, val uint64) {
	panic("psim: Store inside a read-only transaction")
}
func (m roMem) Alloc(words uint64) uint64 {
	panic("psim: Alloc inside a read-only transaction")
}
func (m roMem) Free(addr uint64) {
	panic("psim: Free inside a read-only transaction")
}

func now(p *ptm.Profile) time.Time {
	if p == nil {
		return time.Time{}
	}
	return time.Now()
}

func since(p *ptm.Profile, t time.Time) time.Duration {
	if p == nil {
		return 0
	}
	return time.Since(t)
}
