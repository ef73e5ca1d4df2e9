package redo

import (
	"slices"

	"repro/internal/obs"
	"repro/internal/palloc"
	"repro/internal/pmem"
)

// redoMem is the transactional view used while simulating announced
// operations on an exclusively held replica: every store is recorded in the
// State's physical log (old value for undo, new value for redo) and applied
// in place. Under the Opt variant, repeated stores to the same address are
// aggregated into a single log entry ("store aggregation") and pwbs are
// deferred to commit time ("postpone issuing pwbs"); the base variant
// issues a pwb per store immediately.
type redoMem struct {
	e     *Redo
	comb  *combined
	st    *State
	exec  int // executing thread
	owner int // thread that announced the operation being executed
}

// EmitBytes implements the optional byte-result channel (ptm.EmitBytes):
// the executor writes its own outbox row; the owner reads it after the
// committed state identifies this executor.
func (m *redoMem) EmitBytes(b []byte) { m.e.outbox[m.exec][m.owner] = b }

func (m *redoMem) Load(addr uint64) uint64 { return m.comb.region.Load(addr) }

func (m *redoMem) Store(addr, val uint64) {
	if m.e.feat.StoreAgg {
		if e, ok := m.st.aggr[addr]; ok {
			// Store aggregation: overwrite the redo value in place;
			// the undo value keeps the pre-transaction content.
			e.val.Store(val)
			m.comb.region.Store(addr, val)
			return
		}
		m.st.aggr[addr] = m.st.append(addr, m.comb.region.Load(addr), val)
		m.comb.region.Store(addr, val)
		m.comb.track(addr)
		return
	}
	m.st.append(addr, m.comb.region.Load(addr), val)
	m.comb.region.Store(addr, val)
	if m.e.feat.DeferFlush {
		m.comb.track(addr)
	} else {
		m.comb.region.PWB(addr)
	}
}

// Alloc serves the transaction from the arena keyed by the announcing
// thread (not the executing helper, so re-executed closures allocate
// identically — the ptm.Mem determinism contract) and annotates the trace;
// the annotation is a nil-check when tracing is off.
func (m *redoMem) Alloc(words uint64) uint64 {
	arena := m.owner % palloc.NumArenas
	addr := palloc.AllocArena(m, arena, words)
	if addr != 0 {
		m.e.pool.TraceEvent(obs.KindAlloc, m.exec, m.comb.region.Index(), addr, words, uint64(arena))
	}
	return addr
}

func (m *redoMem) Free(addr uint64) {
	palloc.Free(m, addr)
	m.e.pool.TraceEvent(obs.KindFree, m.exec, m.comb.region.Index(), addr, 0, 0)
}

// StoreWords implements ptm.BulkMem: a whole payload logged as one
// aggregated record and applied to the replica with full cache lines going
// through non-temporal stores. Without the Bulk feature it degrades to the
// exact per-word Store loop, so the word-path ablation measures the same
// construction minus this optimization.
func (m *redoMem) StoreWords(addr uint64, words []uint64) {
	n := len(words)
	if !m.e.feat.Bulk || n == 0 {
		for i, w := range words {
			m.Store(addr+uint64(i), w)
		}
		return
	}
	c := m.comb
	// Undo: one range snapshot of the pre-transaction content.
	old := c.bulkBuf(uint64(n))
	c.region.LoadWords(addr, old)
	if m.e.feat.StoreAgg && len(m.st.aggr) > 0 {
		// A bulk record replays after any earlier word entry, so an
		// aggregation slot inside the covered range would let a *later*
		// word store update the earlier entry and lose to this record.
		// Drop the covered slots; later stores append fresh entries.
		for i := 0; i < n; i++ {
			delete(m.st.aggr, addr+uint64(i))
		}
	}
	m.st.appendBulk(addr, words, old)
	c.applyBulk(addr, words)
}

// LoadWords implements ptm.BulkMem.
func (m *redoMem) LoadWords(addr uint64, dst []uint64) {
	m.comb.region.LoadWords(addr, dst)
}

// roMem is the read-only view handed to read transactions (both the
// optimistic shared-lock path and read closures executed by an updater on
// behalf of a reader). Mutation is a caller bug and fails loudly.
type roMem struct {
	region *pmem.Region
	e      *Redo
	exec   int
	owner  int
}

// EmitBytes implements the optional byte-result channel (ptm.EmitBytes).
func (m roMem) EmitBytes(b []byte) { m.e.outbox[m.exec][m.owner] = b }

func (m roMem) Load(addr uint64) uint64 { return m.region.Load(addr) }
func (m roMem) Store(addr, val uint64) {
	panic("redo: Store inside a read-only transaction")
}
func (m roMem) Alloc(words uint64) uint64 {
	panic("redo: Alloc inside a read-only transaction")
}
func (m roMem) Free(addr uint64) {
	panic("redo: Free inside a read-only transaction")
}

// StoreWords implements ptm.BulkMem (so byte-string reads take the bulk
// load path); storing is a caller bug like Store.
func (m roMem) StoreWords(addr uint64, words []uint64) {
	panic("redo: StoreWords inside a read-only transaction")
}

// LoadWords implements ptm.BulkMem.
func (m roMem) LoadWords(addr uint64, dst []uint64) {
	m.region.LoadWords(addr, dst)
}

// directMem gives raw access for allocator formatting and metadata reads.
type directMem struct {
	region *pmem.Region
}

func (m directMem) Load(addr uint64) uint64 { return m.region.Load(addr) }
func (m directMem) Store(addr, val uint64)  { m.region.Store(addr, val) }

// runDesc executes an announced operation with the appropriate view. Both
// views are cached per executing thread, so handing one to the closure boxes
// a pointer instead of allocating.
func runDesc(d *reqDesc, rm *redoMem) uint64 {
	if d.readOnly {
		ro := rm.e.rox[rm.exec]
		*ro = roMem{region: rm.comb.region, e: rm.e, exec: rm.exec, owner: rm.owner}
		return d.fn(ro)
	}
	return d.fn(rm)
}

// usedWords reports the allocator high-water mark of a replica.
func usedWords(region *pmem.Region) uint64 {
	return palloc.UsedWords(directMem{region})
}

// flushLines issues one pwb per distinct deferred dirty line and resets the
// list ("flush aggregation"). slices.Sort rather than sort.Slice: the
// reflection-based comparator costs two heap allocations per commit.
func flushLines(c *combined) {
	slices.Sort(c.dirty)
	var last uint64 = ^uint64(0)
	for _, line := range c.dirty {
		if line != last {
			c.region.PWB(line * pmem.WordsPerLine)
			last = line
		}
	}
	c.dirty = c.dirty[:0]
}
