// Package redo implements Redo-PTM (§5 of the paper) and its two refined
// variants, RedoTimed-PTM and RedoOpt-PTM: wait-free persistent
// transactional memories built on Herlihy's combining consensus and N+1
// replicas, with a volatile *physical* log.
//
// Where the CX constructions store logical operations in a queue and every
// replica re-executes them, Redo-PTM records the physical effects (address,
// old value, new value) of the first execution; helper threads and stale
// replicas replay those effects instead of re-running the operation — the
// paper's motivating example being a linked-list insert whose traversal is
// executed once but whose two modified words are replayed everywhere.
//
// The implementation follows Algorithms 1–3: a req/announce descriptor per
// thread, an N×RSIZE matrix of pre-allocated States, a ring of SeqTidIdx
// tickets standing in for the memory-bounded wait-free queue, and a strong
// try reader-writer lock per Combined replica. Update transactions issue one
// pfence (replica lines) and one psync (curComb header).
package redo

import (
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/palloc"
	"repro/internal/pmem"
	"repro/internal/ptm"
	"repro/internal/rwlock"
)

// Variant selects the construction refinement.
type Variant int

const (
	// Base is plain Redo-PTM: physical logging, immediate pwbs, regular
	// replica copies.
	Base Variant = iota
	// Timed is RedoTimed-PTM: update transactions are funnelled through
	// the first two replicas for a bounded time (4× the last copy cost)
	// with exponential backoff, keeping those replicas fresh.
	Timed
	// Opt is RedoOpt-PTM: Timed plus store aggregation, flush
	// aggregation, deferred pwbs and non-temporal replica copies.
	Opt
)

func (v Variant) String() string {
	switch v {
	case Timed:
		return "RedoTimed-PTM"
	case Opt:
		return "RedoOpt-PTM"
	default:
		return "Redo-PTM"
	}
}

// invalidHead marks a replica whose content is stale beyond repair by log
// replay (fresh replicas at start-up, all non-adopted replicas after
// recovery).
const invalidHead = ^uint64(0)

// headerSlot is the pool header slot holding the persistent curComb.
const headerSlot = 0

const headerValid = uint64(1) << 63

// combined is one replica (Algorithm 1's Combined).
type combined struct {
	head   atomic.Uint64 // SeqTidIdx of the last state applied to the replica
	region *pmem.Region
	lk     *rwlock.StrongTryRWLock

	// Deferred-flush bookkeeping, touched only under exclusive hold.
	dirty    []uint64 // cache lines awaiting pwb (Opt)
	flushAll bool     // whole used heap must be flushed (after plain copy)
	scratch  []uint64 // reusable word buffer for bulk records
}

// track registers a deferred pwb for the line containing addr (Opt).
func (c *combined) track(addr uint64) {
	if !c.flushAll {
		c.dirty = append(c.dirty, addr/pmem.WordsPerLine)
	}
}

// trackRange registers deferred pwbs for every line overlapping [lo, hi) —
// line-granular tracking for a bulk store, one entry per line instead of one
// per word.
func (c *combined) trackRange(lo, hi uint64) {
	if c.flushAll || lo >= hi {
		return
	}
	for line := lo / pmem.WordsPerLine; line <= (hi-1)/pmem.WordsPerLine; line++ {
		c.dirty = append(c.dirty, line)
	}
}

// bulkBuf returns a reusable length-n word buffer. Only the exclusive holder
// of the replica (simulation, replay, undo) calls it, and never with two
// live buffers at once.
func (c *combined) bulkBuf(n uint64) []uint64 {
	if uint64(cap(c.scratch)) < n {
		c.scratch = make([]uint64, n)
	}
	return c.scratch[:n]
}

// applyBulk writes a bulk payload into the replica: full cache lines go
// through non-temporal line stores (durable after the commit fence, no pwb
// owed), partial head/tail lines through one aggregated store plus
// line-granular dirty tracking. Only reachable with feat.Bulk, which implies
// deferred flushing.
func (c *combined) applyBulk(addr uint64, words []uint64) {
	end := addr + uint64(len(words))
	firstFull := (addr + pmem.WordsPerLine - 1) / pmem.WordsPerLine * pmem.WordsPerLine
	lastFull := end / pmem.WordsPerLine * pmem.WordsPerLine
	if firstFull >= lastFull {
		// The payload never covers a whole line.
		c.region.StoreWords(addr, words)
		c.trackRange(addr, end)
		return
	}
	if addr < firstFull {
		c.region.StoreWords(addr, words[:firstFull-addr])
		c.trackRange(addr, firstFull)
	}
	for a := firstFull; a < lastFull; a += pmem.WordsPerLine {
		c.region.NTStoreLine(a, words[a-addr:a-addr+pmem.WordsPerLine])
	}
	if lastFull < end {
		c.region.StoreWords(lastFull, words[lastFull-addr:])
		c.trackRange(lastFull, end)
	}
}

// Features are the individual RedoOpt-PTM optimizations (§5, "Additional
// optimizations"), exposed separately so the ablation benchmarks can
// quantify each one. The Variant presets fill them in: Base enables none,
// Timed enables Funnel, Opt enables all.
type Features struct {
	// Funnel restricts update transactions to the first two replicas for
	// a bounded time with backoff (the RedoTimed mechanism).
	Funnel bool
	// StoreAgg merges repeated stores to one address into a single log
	// entry ("store aggregation"). Implies deferred flushing.
	StoreAgg bool
	// DeferFlush postpones pwbs to commit time and dedupes cache lines
	// ("flush aggregation" + "postpone issuing pwbs").
	DeferFlush bool
	// NTCopy rebuilds replicas with non-temporal stores ("copy using
	// ntstore"), avoiding the whole-heap flush after a copy.
	NTCopy bool
	// Bulk logs a whole byte payload as one aggregated record and applies
	// full cache lines with non-temporal stores, shrinking the commit
	// flush set to one pwb/ntstore per line instead of one pwb per word.
	// Implies deferred flushing.
	Bulk bool
}

// featuresFor returns the preset for a variant.
func featuresFor(v Variant) Features {
	switch v {
	case Timed:
		return Features{Funnel: true}
	case Opt:
		return Features{Funnel: true, StoreAgg: true, DeferFlush: true, NTCopy: true, Bulk: true}
	default:
		return Features{}
	}
}

// Config parameterizes a Redo engine.
type Config struct {
	// Threads is N; thread ids are 0..N-1 (max 256).
	Threads int
	// RingSize is RSIZE, the bounded queue length and per-thread State
	// pool size. Defaults to 128 (max 4096).
	RingSize int
	// MaxReadTries is the number of optimistic read attempts before a
	// reader announces its operation. Defaults to 4.
	MaxReadTries int
	// Variant selects Base, Timed or Opt.
	Variant Variant
	// Features, when non-nil, overrides the Variant's optimization
	// preset (ablation studies).
	Features *Features
	// Profile, when non-nil, accumulates the Table 1 phase breakdown.
	Profile *ptm.Profile
	// Buffered selects relaxed (buffered) durability: update transactions
	// commit into the in-flight epoch without flushing their replica or
	// publishing the curComb header; a persister (driven through Persist,
	// one caller at a time) seals the epoch, coalesces the deferred
	// flushes, issues one fence for the whole group, and advances the
	// durable watermark by publishing the header. A crash loses at most
	// the un-persisted suffix of epochs — never a gap — because recovery
	// adopts only the replica the watermark header names, which stays
	// frozen under the persister's shared pin until the next watermark.
	// Requires a pool with at least 3 regions (Threads+2 recommended:
	// one for curComb, one pinned durable, the rest for writers).
	// Implies DeferFlush.
	Buffered bool
}

// Redo is the engine behind Redo-PTM, RedoTimed-PTM and RedoOpt-PTM.
type Redo struct {
	cfg       Config
	feat      Features
	pool      *pmem.Pool
	combs     []*combined
	curComb   atomic.Uint64 // pack(seq, winnerTid, combIdx)
	ring      []atomic.Uint64
	stMatrix  [][]*State
	reqs      []atomic.Pointer[reqDesc]
	lastIdx   []int         // per-thread next State index (owner-only)
	lastFlag  []bool        // per-thread announcement parity (owner-only)
	persisted atomic.Uint64 // highest seq known durable in the header
	copies    atomic.Uint64
	lastCopy  atomic.Int64 // duration of the last replica copy (ns)

	// outbox[executor][owner] carries byte-string results from the
	// thread that executed an operation back to the thread that
	// announced it (see EmitBytes); each executor writes only its own
	// row, and owners read after the happens-before edge established by
	// the committed state's ticket.
	outbox   [][][]byte
	lastFrom []int // per-owner: executor of the last completed operation

	// Zero-allocation hot-path plumbing. ro caches one read-only view per
	// thread so the optimistic read path avoids boxing a fresh roMem into
	// ptm.Mem on every call; rw and rox are the executor-side equivalents
	// for the transactional and announced-read views (every field is
	// reassigned before each use, and only thread tid touches index tid).
	// descs/descIdx hold each thread's small pool of reusable announcement
	// descriptors (owner-only); hazard[tid] is the descriptor executor tid
	// is currently helping, which an owner must not recycle (see grabDesc).
	ro      []*roMem
	rw      []*redoMem
	rox     []*roMem
	hazard  []atomic.Pointer[reqDesc]
	descs   [][]*reqDesc
	descIdx []int

	// Buffered-durability state. persistTid is the persister's reserved
	// lock slot (cfg.Threads — the replica locks are sized one wider than
	// the thread count); pinnedIdx is the replica the durable header
	// names, held shared by the persister so no writer can reacquire and
	// mutate it before the watermark moves past it (written only by the
	// persister — one Persist caller at a time — but read racily by
	// writers steering their funnel scan around the pin, hence atomic; a
	// stale read is benign, the replica lock is the ground truth).
	// lastSeq[tid] is the commit sequence of thread tid's last completed
	// operation — the epoch Sync must wait for (owner-only).
	persistTid int
	pinnedIdx  atomic.Int32
	lastSeq    []uint64
}

// New creates a Redo engine over pool. The paper's bound needs N+1 regions;
// any count >= 2 works, trading progress for memory. If the pool header
// records a previous instantiation, the persisted replica is adopted (null
// recovery); otherwise region 0 is formatted and persisted as the initial
// heap.
func New(pool *pmem.Pool, cfg Config) *Redo {
	if cfg.Threads <= 0 || cfg.Threads > tidMask+1 {
		panic("redo: Threads must be in 1..256")
	}
	if pool.Regions() < 2 {
		panic("redo: pool needs at least 2 regions")
	}
	if cfg.RingSize == 0 {
		cfg.RingSize = 128
	}
	if cfg.RingSize < 4 || cfg.RingSize > idxMask+1 {
		panic("redo: RingSize must be in 4..4096")
	}
	if cfg.MaxReadTries == 0 {
		cfg.MaxReadTries = 4
	}
	feat := featuresFor(cfg.Variant)
	if cfg.Features != nil {
		feat = *cfg.Features
	}
	if feat.StoreAgg || feat.Bulk {
		feat.DeferFlush = true // aggregated/bulk stores must flush at commit
	}
	if cfg.Buffered {
		// The persister coalesces the per-replica dirty-line lists, so
		// commits must defer their flushes, and the pool needs a replica
		// beyond curComb and the pinned durable one for writers to make
		// progress between Persist calls.
		feat.DeferFlush = true
		if pool.Regions() < 3 {
			panic("redo: buffered mode needs at least 3 regions (Threads+2 recommended)")
		}
	}
	e := &Redo{
		cfg:      cfg,
		feat:     feat,
		pool:     pool,
		ring:     make([]atomic.Uint64, cfg.RingSize),
		reqs:     make([]atomic.Pointer[reqDesc], cfg.Threads),
		lastIdx:  make([]int, cfg.Threads),
		lastFlag: make([]bool, cfg.Threads),
		outbox:   make([][][]byte, cfg.Threads),
		lastFrom: make([]int, cfg.Threads),
	}
	for i := range e.outbox {
		e.outbox[i] = make([][]byte, cfg.Threads)
	}
	e.ro = make([]*roMem, cfg.Threads)
	e.rw = make([]*redoMem, cfg.Threads)
	e.rox = make([]*roMem, cfg.Threads)
	e.hazard = make([]atomic.Pointer[reqDesc], cfg.Threads)
	e.descs = make([][]*reqDesc, cfg.Threads)
	e.descIdx = make([]int, cfg.Threads)
	for i := 0; i < cfg.Threads; i++ {
		e.ro[i] = &roMem{e: e, exec: i, owner: i}
		e.rw[i] = &redoMem{}
		e.rox[i] = &roMem{}
		e.descs[i] = []*reqDesc{{}, {}, {}}
	}
	e.persistTid = cfg.Threads
	e.pinnedIdx.Store(-1)
	e.lastSeq = make([]uint64, cfg.Threads)
	lockThreads := cfg.Threads
	if cfg.Buffered {
		lockThreads++ // one reader slot for the persister's shared pin
	}
	e.combs = make([]*combined, pool.Regions())
	for i := range e.combs {
		e.combs[i] = &combined{region: pool.Region(i), lk: rwlock.New(lockThreads)}
		e.combs[i].head.Store(invalidHead)
	}
	e.stMatrix = make([][]*State, cfg.Threads)
	for t := range e.stMatrix {
		e.stMatrix[t] = make([]*State, cfg.RingSize)
		for i := range e.stMatrix[t] {
			e.stMatrix[t][i] = newState(cfg.Threads)
		}
	}
	// Genesis: stMatrix[0][0] with ticket pack(0,0,0)=0 is the seq-0
	// consensus state; ring[0] already holds 0.
	e.lastIdx[0] = 1
	cur := 0
	pool.TraceEvent(obs.KindRecoveryBegin, -1, -1, 0, 0, 0)
	if packed := pool.PersistedHeader(headerSlot); packed&headerValid != 0 {
		cur = idxOf(packed &^ headerValid)
		if cur >= len(e.combs) {
			panic(pmem.Corruptf("redo", "recovered curComb names region %d of %d", cur, len(e.combs)))
		}
		// New era: sequence numbering restarts with fresh states.
		pool.HeaderStore(headerSlot, headerValid|pack(0, 0, cur))
		pool.PWBHeader(headerSlot)
		pool.PSync()
		pool.TraceEvent(obs.KindHeaderPublish, -1, -1, headerSlot, 1, 0)
	} else {
		palloc.Format(directMem{e.combs[0].region}, pool.RegionWords())
		meta := palloc.MetaWords(directMem{e.combs[0].region})
		e.combs[0].region.FlushRange(0, meta)
		e.combs[0].region.PFence()
		pool.TraceEvent(obs.KindPublish, -1, 0, 0, meta, obs.PubHeap)
		pool.HeaderStore(headerSlot, headerValid|pack(0, 0, 0))
		pool.PWBHeader(headerSlot)
		pool.PSync()
		pool.TraceEvent(obs.KindHeaderPublish, -1, -1, headerSlot, 1, 0)
	}
	pool.TraceEvent(obs.KindRecoveryEnd, -1, -1, 0, 0, 0)
	e.combs[cur].head.Store(pack(0, 0, 0))
	if !e.combs[cur].lk.ExclusiveTryLock(0) {
		panic("redo: initial lock acquisition failed")
	}
	e.combs[cur].lk.Downgrade()
	e.curComb.Store(pack(0, 0, cur))
	if cfg.Buffered {
		// Pin the recovered replica: it is what the durable header names,
		// and it must stay frozen until the first watermark advance.
		if !e.combs[cur].lk.SharedTryLock(e.persistTid) {
			panic("redo: initial persister pin failed")
		}
		e.pinnedIdx.Store(int32(cur))
	}
	return e
}

// MaxThreads implements ptm.PTM.
func (e *Redo) MaxThreads() int { return e.cfg.Threads }

// Name implements ptm.PTM.
func (e *Redo) Name() string { return e.cfg.Variant.String() }

// Properties implements ptm.PTM, mirroring the §2 comparison table.
func (e *Redo) Properties() ptm.Properties {
	return ptm.Properties{
		Log:         ptm.VolatilePhysical,
		Progress:    ptm.WaitFree,
		FencesPerTx: "2",
		Replicas:    "N+1",
	}
}

// Copies reports how many replica rebuild copies were performed.
func (e *Redo) Copies() uint64 { return e.copies.Load() }

// VolatileBytes estimates the engine's transient memory: the N×RSIZE State
// matrix with its physical log chunks. This is the driver of RedoDB's
// volatile-memory growth in Fig. 8 ("the number of States is proportional
// to the number of active threads").
func (e *Redo) VolatileBytes() uint64 {
	var n uint64
	for _, row := range e.stMatrix {
		for _, st := range row {
			n += uint64(e.cfg.Threads) * 24 // applied + results + from
			for c := st.logHead; c != nil; c = c.next.Load() {
				n += logChunk * 24 // addr, old, val per entry
			}
		}
	}
	return n
}

// resolve returns the State a SeqTidIdx names.
func (e *Redo) resolve(t SeqTidIdx) *State { return e.stMatrix[tidOf(t)][idxOf(t)] }

// tryResult checks whether the calling thread's announced operation (with
// parity flag) has been executed and its containing transition committed; if
// so it makes the transition durable and returns the result.
func (e *Redo) tryResult(tid int, flag bool) (uint64, bool) {
	curC := e.curComb.Load()
	comb := e.combs[idxOf(curC)]
	tail := comb.head.Load()
	if tail == invalidHead || e.curComb.Load() != curC {
		return 0, false
	}
	st := e.resolve(tail)
	if st.ticket.Load() != tail {
		return 0, false
	}
	if st.applied[tid].Load() != flag {
		return 0, false
	}
	res := st.results[tid].Load()
	from := st.from[tid].Load()
	if st.ticket.Load() != tail {
		return 0, false
	}
	e.lastFrom[tid] = int(from)
	e.lastSeq[tid] = seqOf(tail)
	e.ensurePersisted(tid, seqOf(tail))
	return res, true
}

// ensurePersisted makes the curComb header durable with at least the given
// sequence number: the paper's `pwb(curComb); psync()` at every return path,
// elided when a transition at least as recent is already durable. In
// buffered mode the callers' fences are elided entirely — only the
// persister (Persist) advances the durable header, and it does so for a
// whole epoch at a time.
func (e *Redo) ensurePersisted(tid int, seq uint64) {
	if e.cfg.Buffered {
		return
	}
	for e.persisted.Load() < seq {
		curC := e.curComb.Load()
		s := seqOf(curC)
		packed := headerValid | curC
		for {
			old := e.pool.HeaderLoad(headerSlot)
			if seqOf(old&^headerValid) >= s {
				break
			}
			if e.pool.HeaderCAS(headerSlot, old, packed) {
				break
			}
		}
		e.pool.PWBHeader(headerSlot)
		e.pool.PSync()
		e.pool.TraceEvent(obs.KindHeaderPublish, tid, -1, headerSlot, 1, 0)
		for {
			p := e.persisted.Load()
			if p >= s || e.persisted.CompareAndSwap(p, s) {
				break
			}
		}
	}
}

// grabDesc returns a descriptor tid may safely mutate for its next
// announcement: not the currently published one, and not hazard-pinned by
// any executor. Steady state rotates the thread's three pre-allocated
// descriptors without allocating; when a slow helper still pins a retired
// descriptor, a fresh one replaces it in the pool and the pinned one is
// abandoned to the GC once the helper drops it. Three suffice in the common
// case: one published, one being helped, one free.
func (e *Redo) grabDesc(tid int) *reqDesc {
	pool := e.descs[tid]
	cur := e.reqs[tid].Load()
	idx := e.descIdx[tid]
	for k := 0; k < len(pool); k++ {
		d := pool[(idx+k)%len(pool)]
		if d == cur || e.hazarded(d) {
			continue
		}
		e.descIdx[tid] = (idx + k + 1) % len(pool)
		return d
	}
	d := &reqDesc{}
	pool[idx] = d
	e.descIdx[tid] = (idx + 1) % len(pool)
	return d
}

// hazarded reports whether any executor has d hazard-pinned. An executor
// publishes its hazard pointer *before* re-validating the announcement (see
// the combining loop), so a pin that this scan misses belongs to a helper
// whose validation is bound to fail — the classic hazard-pointer protocol.
func (e *Redo) hazarded(d *reqDesc) bool {
	for i := range e.hazard {
		if e.hazard[i].Load() == d {
			return true
		}
	}
	return false
}

// announce publishes (fn, flag, readOnly) in a recycled descriptor.
func (e *Redo) announce(tid int, fn func(ptm.Mem) uint64, flag, readOnly bool) {
	d := e.grabDesc(tid)
	d.fn, d.flag, d.readOnly = fn, flag, readOnly
	e.reqs[tid].Store(d)
}

// helpRing publishes a committed transition ticket in the ring (the
// memory-bounded wait-free queue), helping laggards.
func (e *Redo) helpRing(t SeqTidIdx) {
	slot := seqOf(t) % uint64(e.cfg.RingSize)
	for {
		old := e.ring[slot].Load()
		// Committed transitions always have seq >= 1, so a zero entry
		// (empty slot or the genesis ticket) is always older.
		if seqOf(old) >= seqOf(t) && old != 0 {
			return
		}
		if old == t || e.ring[slot].CompareAndSwap(old, t) {
			return
		}
	}
}

// Update implements ptm.PTM: a durable linearizable wait-free update
// transaction (Algorithm 3).
func (e *Redo) Update(tid int, fn func(ptm.Mem) uint64) uint64 {
	txStart := now(e.cfg.Profile)
	flag := !e.lastFlag[tid]
	e.lastFlag[tid] = flag
	e.announce(tid, fn, flag, false) // {1}
	var c *combined
	cIdx := -1
	finish := func(res uint64) uint64 {
		if c != nil {
			c.lk.ExclusiveUnlock()
		}
		e.cfg.Profile.AddTx(since(e.cfg.Profile, txStart))
		return res
	}
	for {
		// Fallback (Algorithm 3 lines 43–51): a helper executed and
		// committed our operation.
		if res, ok := e.tryResult(tid, flag); ok {
			return finish(res)
		}
		curC := e.curComb.Load() // {2}
		comb := e.combs[idxOf(curC)]
		tail := comb.head.Load()
		if tail == invalidHead || e.curComb.Load() != curC {
			continue
		}
		// {3} populate our State from the consensus tail.
		myIdx := e.lastIdx[tid]
		newSt := e.stMatrix[tid][myIdx]
		tkt := pack(seqOf(tail)+1, tid, myIdx)
		if !newSt.copyMetaFrom(e.resolve(tail), tail, tkt, e.feat.StoreAgg) {
			continue
		}
		if e.curComb.Load() != curC {
			continue
		}
		e.helpRing(tail) // {4}
		if c == nil {    // {5}
			c, cIdx = e.acquire(tid, flag)
			if c == nil {
				// Helped while waiting for a replica.
				if res, ok := e.tryResult(tid, flag); ok {
					return finish(res)
				}
				continue
			}
		}
		if !e.catchUp(tid, c, tail) { // {6}
			continue
		}
		// {7} simulate all announced operations on the replica.
		e.pool.TraceEvent(obs.KindCombineBegin, tid, cIdx, 0, 0, seqOf(tkt))
		lambdaStart := now(e.cfg.Profile)
		for i := 0; i < e.cfg.Threads; i++ {
			d := e.reqs[i].Load()
			if d == nil {
				continue
			}
			// Hazard-pin the descriptor before touching its fields: owners
			// recycle retired descriptors, but only unpinned ones, and the
			// re-validation below rejects any descriptor retired before the
			// pin became visible to its owner's grabDesc scan.
			e.hazard[tid].Store(d)
			if e.reqs[i].Load() != d || newSt.applied[i].Load() == d.flag {
				e.hazard[tid].Store(nil)
				continue
			}
			rm := e.rw[tid]
			*rm = redoMem{e: e, comb: c, st: newSt, exec: tid, owner: i}
			newSt.results[i].Store(runDesc(d, rm))
			newSt.from[i].Store(uint32(tid))
			newSt.applied[i].Store(d.flag)
			e.hazard[tid].Store(nil)
		}
		e.cfg.Profile.AddLambda(since(e.cfg.Profile, lambdaStart))
		// Flush the replica and order it before publication. Buffered
		// mode defers both to the persister: the dirty-line list keeps
		// accumulating on the replica and is coalesced — one pwb per
		// line per epoch, one fence per epoch — when Persist seals the
		// epoch this commit belongs to. Until then the transition is
		// volatile, which is exactly the buffered-durability loss model
		// (an un-synced commit-order suffix may be lost, never a gap).
		if !e.cfg.Buffered {
			flushStart := now(e.cfg.Profile)
			e.flushReplica(c)
			c.region.PFence()
			if e.pool.Traced() {
				// The published span is the allocator high-water mark — a
				// runtime value no static fence analysis can know.
				e.pool.TraceEvent(obs.KindPublish, tid, cIdx, 0, usedWords(c.region), obs.PubHeap)
			}
			e.cfg.Profile.AddFlush(since(e.cfg.Profile, flushStart))
		}
		c.head.Store(tkt)
		c.lk.Downgrade()                                                 // {8}
		if e.curComb.CompareAndSwap(curC, pack(seqOf(tkt), tid, cIdx)) { // {9}
			e.pool.TraceEvent(obs.KindCurComb, tid, cIdx, 0, 0, pack(seqOf(tkt), tid, cIdx))
			comb.lk.DowngradeUnlock()
			e.helpRing(tkt)
			e.lastSeq[tid] = seqOf(tkt)
			e.ensurePersisted(tid, seqOf(tkt))
			e.pool.TraceEvent(obs.KindCombineEnd, tid, cIdx, 0, 0, 1)
			e.lastIdx[tid] = (myIdx + 1) % e.cfg.RingSize
			c = nil // ownership passed to the next winner
			res := newSt.results[tid].Load()
			e.cfg.Profile.AddTx(since(e.cfg.Profile, txStart))
			return res
		}
		// Lost the consensus: revert the simulation and retry.
		e.pool.TraceEvent(obs.KindCombineEnd, tid, cIdx, 0, 0, 0)
		for !c.lk.TryUpgrade(tid) {
			runtime.Gosched()
		}
		applyStart := now(e.cfg.Profile)
		e.applyUndo(newSt, c)
		c.head.Store(tail)
		e.cfg.Profile.AddApply(since(e.cfg.Profile, applyStart))
	}
}

// Read implements ptm.PTM: a wait-free read-only transaction (Algorithm 2).
func (e *Redo) Read(tid int, fn func(ptm.Mem) uint64) uint64 {
	published := false
	var flag bool
	for i := 0; ; i++ {
		if i >= e.cfg.MaxReadTries && !published { // {1}
			flag = !e.lastFlag[tid]
			e.lastFlag[tid] = flag
			e.announce(tid, fn, flag, true)
			published = true
		}
		if published { // {2}
			if res, ok := e.tryResult(tid, flag); ok {
				return res
			}
		}
		curC := e.curComb.Load() // {3}
		comb := e.combs[idxOf(curC)]
		if !comb.lk.SharedTryLock(tid) { // {4}
			continue
		}
		if e.curComb.Load() != curC {
			comb.lk.SharedUnlock(tid)
			continue
		}
		ro := e.ro[tid] // cached view: no interface boxing per read
		ro.region = comb.region
		res := fn(ro)
		comb.lk.SharedUnlock(tid)
		e.lastFrom[tid] = tid
		e.lastSeq[tid] = seqOf(curC)
		e.ensurePersisted(tid, seqOf(curC))
		return res
	}
}

// TryRead runs fn as an optimistic read-only transaction on the calling
// thread only: up to MaxReadTries shared-lock attempts, never announcing fn.
// Because fn cannot be executed by a helper, it is free to capture and
// mutate caller-local state (append into a reused buffer, say) — the one
// thing announced closures must never do — and the whole path allocates
// nothing. Returns ok=false when the shared lock could not be obtained, in
// which case the caller falls back to the announced Read path with a
// helper-safe closure.
func (e *Redo) TryRead(tid int, fn func(ptm.Mem) uint64) (uint64, bool) {
	for i := 0; i < e.cfg.MaxReadTries; i++ {
		curC := e.curComb.Load()
		comb := e.combs[idxOf(curC)]
		if !comb.lk.SharedTryLock(tid) {
			continue
		}
		if e.curComb.Load() != curC {
			comb.lk.SharedUnlock(tid)
			continue
		}
		ro := e.ro[tid]
		ro.region = comb.region
		res := fn(ro)
		comb.lk.SharedUnlock(tid)
		e.lastFrom[tid] = tid
		e.lastSeq[tid] = seqOf(curC)
		e.ensurePersisted(tid, seqOf(curC))
		return res, true
	}
	return 0, false
}

// ReadWithBytes runs fn as a read-only transaction and additionally returns
// the byte string fn emitted through ptm.EmitBytes (nil if none). This is
// how RedoDB's Get extracts values: a captured variable would race when the
// combining consensus executes the closure on a helper thread, whereas the
// outbox is indexed by executor and synchronized by the committed state.
func (e *Redo) ReadWithBytes(tid int, fn func(ptm.Mem) uint64) (uint64, []byte) {
	e.outbox[tid][tid] = nil
	res := e.Read(tid, fn)
	b := e.outbox[e.lastFrom[tid]][tid]
	return res, b
}

// acquire obtains an exclusive replica. Base scans all replicas; Timed and
// Opt funnel through the first two for a bounded period (4× the last copy
// cost) with exponential backoff, so those replicas stay fresh. Returns nil
// if the caller's operation completed while waiting.
func (e *Redo) acquire(tid int, flag bool) (*combined, int) {
	funnel := e.feat.Funnel
	var deadline time.Time
	if funnel {
		wait := time.Duration(e.lastCopy.Load()) * 4
		if wait < 10*time.Microsecond {
			wait = 10 * time.Microsecond
		}
		deadline = time.Now().Add(wait)
	}
	backoff := uint64(1 << 6)
	for {
		limit := len(e.combs)
		if funnel && time.Now().Before(deadline) {
			limit = 2
		}
		curIdx := idxOf(e.curComb.Load())
		// In buffered mode the persister's watermark pin freezes one
		// replica at an arbitrary index. It can never be acquired, so the
		// funnel must steer around it: counting it against the limit would
		// make every writer burn the whole funnel deadline spinning on a
		// lock that cannot be granted. A racy read is fine — the replica
		// lock below is the ground truth.
		pinned := -1
		if e.cfg.Buffered {
			pinned = int(e.pinnedIdx.Load())
		}
		for i, seen := 0, 0; i < len(e.combs) && seen < limit; i++ {
			if i == curIdx || i == pinned {
				continue
			}
			seen++
			if e.combs[i].lk.ExclusiveTryLock(tid) {
				return e.combs[i], i
			}
		}
		if e.opDone(tid, flag) {
			return nil, -1
		}
		if funnel {
			// Anderson-style exponential spin backoff: an OS sleep
			// would overshoot by orders of magnitude at this scale.
			sleepStart := now(e.cfg.Profile)
			spinBackoff(backoff)
			e.cfg.Profile.AddSleep(since(e.cfg.Profile, sleepStart))
			if backoff < 1<<13 {
				backoff *= 2
			}
		} else {
			runtime.Gosched()
		}
	}
}

var spinSink atomic.Uint64

// spinBackoff burns roughly n cycles without being optimized away, yielding
// the processor once so starved goroutines can run.
func spinBackoff(n uint64) {
	acc := n
	for i := uint64(0); i < n; i++ {
		acc = acc*2862933555777941757 + 3037000493
	}
	spinSink.Store(acc)
	runtime.Gosched()
}

// opDone reports whether the thread's announced operation has been executed
// and committed (without the durability side effects of tryResult).
func (e *Redo) opDone(tid int, flag bool) bool {
	curC := e.curComb.Load()
	tail := e.combs[idxOf(curC)].head.Load()
	if tail == invalidHead {
		return false
	}
	st := e.resolve(tail)
	if st.ticket.Load() != tail {
		return false
	}
	return st.applied[tid].Load() == flag
}

// catchUp brings replica c to the consensus tail: replaying the physical
// logs published in the ring when possible, rebuilding by copy from curComb
// otherwise. Returns false if the caller's snapshot went stale and the outer
// loop must re-read curComb.
func (e *Redo) catchUp(tid int, c *combined, tail SeqTidIdx) bool {
	applyStart := now(e.cfg.Profile)
	replayOK := e.replay(tid, c, tail)
	e.cfg.Profile.AddApply(since(e.cfg.Profile, applyStart))
	if replayOK {
		return true
	}
	if !e.copyFromCur(tid, c) {
		return false
	}
	// The copy may have adopted a state newer than the caller's
	// snapshot, in which case the snapshot must be refreshed.
	return c.head.Load() == tail
}

// replay applies committed physical logs to c until it reaches tail.
// Returns false if the replica cannot catch up via the ring (state reuse,
// stale snapshot, or invalid replica).
func (e *Redo) replay(tid int, c *combined, tail SeqTidIdx) bool {
	began := false
	defer func() {
		if began {
			e.pool.TraceEvent(obs.KindReplayEnd, tid, c.region.Index(), 0, 0, seqOf(c.head.Load()))
		}
	}()
	for {
		head := c.head.Load()
		if head == tail {
			return true
		}
		if head == invalidHead {
			return false
		}
		if seqOf(head) >= seqOf(tail) {
			return false // snapshot went stale
		}
		if !began {
			began = true
			e.pool.TraceEvent(obs.KindReplayBegin, tid, c.region.Index(), 0, 0, seqOf(head))
		}
		nextSeq := seqOf(head) + 1
		entry := e.ring[nextSeq%uint64(e.cfg.RingSize)].Load()
		if seqOf(entry) != nextSeq {
			return false // overwritten: replica fell out of the ring window
		}
		st := e.resolve(entry)
		if st.ticket.Load() != entry {
			return false // state reused
		}
		n := st.logSize.Load()
		ok := true
		cur := st.cursor()
		for pos := uint64(0); pos < n; {
			we := cur.next()
			if we == nil {
				ok = false
				break
			}
			addr, val := we.addr.Load(), we.val.Load()
			if addr&bulkTag != 0 {
				// Bulk record: header carries base and word count; the
				// payload replays as one aggregated write. Every bound is
				// re-checked because a reused log reads as garbage until
				// the ticket validation below rejects it.
				base, cnt := addr&^bulkTag, val
				if cnt == 0 || base >= c.region.Words() ||
					cnt > c.region.Words()-base || pos+1+cnt > n {
					ok = false
					break
				}
				buf := c.bulkBuf(cnt)
				if !cur.readPayload(buf, false) {
					ok = false
					break
				}
				c.applyBulk(base, buf)
				pos += 1 + cnt
				continue
			}
			if addr >= c.region.Words() {
				ok = false // torn read of a reused log
				break
			}
			c.region.Store(addr, val)
			if e.feat.DeferFlush {
				c.track(addr)
			} else {
				c.region.PWB(addr)
			}
			pos++
		}
		// Validate the log was not reused mid-replay; if it was, the
		// garbage written above is repaired by the copy path.
		if !ok || st.ticket.Load() != entry {
			return false
		}
		c.head.Store(entry)
	}
}

// copyFromCur rebuilds c from the replica curComb references, under a shared
// lock on the source. Opt copies with non-temporal stores (no pwbs needed);
// the other variants use regular stores and schedule a whole-heap flush.
// Returns false if curComb kept moving and the copy could not complete.
func (e *Redo) copyFromCur(tid int, c *combined) bool {
	copyStart := now(e.cfg.Profile)
	defer func() {
		d := since(e.cfg.Profile, copyStart)
		e.cfg.Profile.AddCopy(d)
	}()
	t0 := time.Now()
	for attempt := 0; attempt < 4; attempt++ {
		curC := e.curComb.Load()
		src := e.combs[idxOf(curC)]
		if src == c {
			return false
		}
		if !src.lk.SharedTryLock(tid) {
			continue
		}
		if e.curComb.Load() != curC {
			src.lk.SharedUnlock(tid)
			continue
		}
		used := usedWords(src.region)
		if e.feat.NTCopy {
			c.region.NTCopyFrom(src.region, used)
		} else {
			c.region.CopyFrom(src.region, used)
			c.flushAll = true
		}
		c.head.Store(src.head.Load())
		src.lk.SharedUnlock(tid)
		c.dirty = c.dirty[:0]
		e.copies.Add(1)
		e.lastCopy.Store(int64(time.Since(t0)))
		return true
	}
	return false
}

// flushReplica issues the pwbs owed before publication. Base/Timed already
// flushed per store; after a plain copy the whole used heap is flushed.
// Opt dedupes the deferred line list ("flush aggregation") and falls back to
// a whole-heap flush when the list exceeds a tenth of the object, as in the
// paper.
func (e *Redo) flushReplica(c *combined) {
	used := usedWords(c.region)
	if c.flushAll {
		c.region.FlushRange(0, used)
		c.flushAll = false
		c.dirty = c.dirty[:0]
		return
	}
	if !e.feat.DeferFlush || len(c.dirty) == 0 {
		return
	}
	// The paper switches to a whole-object flush when the deferred list
	// exceeds a tenth of the object; the extra floor avoids degenerate
	// whole-heap flushes on near-empty heaps.
	if len(c.dirty) > 64 && uint64(len(c.dirty)) > used/(10*pmem.WordsPerLine) {
		c.region.FlushRange(0, used)
		c.dirty = c.dirty[:0]
		return
	}
	flushLines(c)
}

// applyUndo reverts a failed simulation by replaying the undo log in
// reverse. Bulk records are variable-length and cannot be parsed backwards,
// so a forward scan first saves a cursor at each record boundary; only the
// owner calls this, on its own fully published log, so no torn-read checks
// are needed.
func (e *Redo) applyUndo(st *State, c *combined) {
	n := st.logSize.Load()
	var starts []logCursor
	cur := st.cursor()
	for pos := uint64(0); pos < n; pos++ {
		starts = append(starts, cur)
		if we := cur.next(); we.addr.Load()&bulkTag != 0 {
			for skip := we.val.Load(); skip > 0; skip-- {
				cur.next() // the bulk record's payload entries
				pos++
			}
		}
	}
	for i := len(starts) - 1; i >= 0; i-- {
		we := starts[i].next()
		addr := we.addr.Load()
		if addr&bulkTag != 0 {
			base, cnt := addr&^bulkTag, we.val.Load()
			buf := c.bulkBuf(cnt)
			starts[i].readPayload(buf, true)
			c.applyBulk(base, buf)
			continue
		}
		c.region.Store(addr, we.old)
		if e.feat.DeferFlush {
			c.track(addr)
		} else {
			c.region.PWB(addr)
		}
	}
}

// now/since avoid time.Now() when profiling is disabled.
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
