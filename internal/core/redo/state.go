package redo

import (
	"fmt"
	"sync/atomic"

	"repro/internal/ptm"
)

// SeqTidIdx is the paper's 64-bit identifier (Algorithm 1): a monotonically
// increasing sequence number, the id of the thread that produced the
// transition, and the index of one of that thread's pre-allocated State
// objects — or, inside curComb, the index of a Combined replica.
//
// Packing: seq(44) | tid(8) | idx(12).
type SeqTidIdx = uint64

const (
	idxBits = 12
	tidBits = 8
	idxMask = (1 << idxBits) - 1
	tidMask = (1 << tidBits) - 1
)

func pack(seq uint64, tid, idx int) SeqTidIdx {
	return seq<<(idxBits+tidBits) | uint64(tid&tidMask)<<idxBits | uint64(idx&idxMask)
}

func seqOf(v SeqTidIdx) uint64 { return v >> (idxBits + tidBits) }
func tidOf(v SeqTidIdx) int    { return int(v>>idxBits) & tidMask }
func idxOf(v SeqTidIdx) int    { return int(v) & idxMask }

// logChunk is the number of write-set entries per log node (the paper's
// MAXLOGSIZE), chained as in Algorithm 1's WriteSetNode.
const logChunk = 64

// bulkTag marks a log entry as the header of an aggregated bulk record (one
// whole byte payload logged as a unit): the entry's addr field carries
// bulkTag|base and its val field the payload word count, followed by that
// many payload entries whose val/old fields hold the redo/undo words.
// Region addresses are bounds-checked well below 2^63, so the tag bit can
// never collide with a real address.
const bulkTag = uint64(1) << 63

// wsEntry is one physical-log record: the modified address, the value before
// the transaction (undo) and the value written (redo). addr and val are read
// by concurrent replayers under seqlock-style ticket validation, so they are
// atomic; old is only ever touched by the State's owning thread.
type wsEntry struct {
	addr atomic.Uint64
	val  atomic.Uint64
	old  uint64
}

// wsNode is a chunk of the physical log. Chunks are allocated once and kept
// across State reuse ("efficient reset and re-usage of the State instance").
type wsNode struct {
	entries [logChunk]wsEntry
	next    atomic.Pointer[wsNode]
}

// reqDesc is a thread's announced operation: the paper's req[tid] and
// announce[tid] merged into one atomically published descriptor so an
// executor always pairs a closure with its announcement parity.
type reqDesc struct {
	fn       func(ptm.Mem) uint64
	flag     bool // alternates per announcement; applied[tid] mirrors it
	readOnly bool
}

// State is the consensus object (Algorithm 1): the applied/results arrays of
// the combining consensus plus the physical redo/undo log of the transition
// that produced it. All States are pre-allocated in an N×RSIZE matrix; a
// State is reused once its sequence number leaves the ring, and the ticket
// lets late readers detect reuse.
type State struct {
	ticket  atomic.Uint64 // SeqTidIdx; changes on reuse, validated by readers
	applied []atomicBool
	results []atomic.Uint64
	// from records which thread executed each operation, so the owner
	// can fetch byte-string results from that executor's outbox row.
	from    []atomic.Uint32
	logSize atomic.Uint64
	logHead *wsNode

	// Owner-only bookkeeping (reset per use).
	logTail   *wsNode
	tailCount int
	// aggr maps addr → its log entry for store aggregation (RedoOpt).
	aggr map[uint64]*wsEntry
}

// atomicBool is an atomic.Bool; aliased for slice allocation readability.
type atomicBool = atomic.Bool

func newState(threads int) *State {
	head := &wsNode{}
	return &State{
		applied: make([]atomicBool, threads),
		results: make([]atomic.Uint64, threads),
		from:    make([]atomic.Uint32, threads),
		logHead: head,
		logTail: head,
	}
}

// resetLog prepares the State for a new transition: empty log, fresh
// aggregation set. The chunk chain is retained.
func (s *State) resetLog(aggregate bool) {
	s.logSize.Store(0)
	s.logTail = s.logHead
	s.tailCount = 0
	if aggregate {
		// clear() keeps a map's bucket array, so one huge transaction
		// (e.g. a hash-table rehash) would make every later reset pay
		// for its high-water capacity; reallocate past a threshold.
		switch {
		case s.aggr == nil || len(s.aggr) > 4096:
			s.aggr = make(map[uint64]*wsEntry, 64)
		default:
			clear(s.aggr)
		}
	}
}

// logCursor walks a State's log forward one entry at a time, following the
// chunk chain node by node, so a full scan costs O(entries) rather than a
// head walk per position. Safe for concurrent replayers: chunks are
// append-only and linked with an atomic pointer.
type logCursor struct {
	node *wsNode
	off  int // next entry within node
}

// cursor returns a cursor at log position 0.
func (s *State) cursor() logCursor { return logCursor{node: s.logHead} }

// next returns the entry under the cursor and advances past it, or nil if
// the chain ends early — a torn read of a log being reset for reuse; the
// caller's ticket validation rejects it.
func (c *logCursor) next() *wsEntry {
	if c.off == logChunk {
		if c.node = c.node.next.Load(); c.node == nil {
			return nil
		}
		c.off = 0
	}
	e := &c.node.entries[c.off]
	c.off++
	return e
}

// append adds a redo/undo record and returns it. Owner-only.
func (s *State) append(addr, old, val uint64) *wsEntry {
	e := s.nextEntry()
	e.addr.Store(addr)
	e.old = old
	e.val.Store(val)
	pos := s.logSize.Load()
	// Publish the entry before bumping logSize so replayers never read
	// an unwritten entry.
	s.logSize.Store(pos + 1)
	return e
}

// nextEntry returns the next unwritten tail entry, growing the chunk chain
// if needed. Owner-only; the caller publishes via logSize.
func (s *State) nextEntry() *wsEntry {
	if s.tailCount == logChunk {
		next := s.logTail.next.Load()
		if next == nil {
			next = &wsNode{}
			s.logTail.next.Store(next)
		}
		s.logTail = next
		s.tailCount = 0
	}
	e := &s.logTail.entries[s.tailCount]
	s.tailCount++
	return e
}

// appendBulk adds one aggregated bulk record: a bulkTag-marked header entry
// carrying the base address and word count, then len(redo) payload entries
// whose val/old fields hold the redo and undo words (their addr fields are
// dead — replayers derive addresses from the header). The whole record is
// published with a single logSize bump, so concurrent replayers either see
// it complete or not at all. Owner-only.
func (s *State) appendBulk(base uint64, redo, undo []uint64) {
	pos := s.logSize.Load()
	n := uint64(len(redo))
	h := s.nextEntry()
	h.addr.Store(bulkTag | base)
	h.old = n
	h.val.Store(n)
	for i := range redo {
		e := s.nextEntry()
		e.old = undo[i]
		e.val.Store(redo[i])
	}
	s.logSize.Store(pos + 1 + n)
}

// readPayload copies the val (redo) or old (undo) fields of the next
// len(buf) entries into buf, advancing the cursor past them. Returns false
// if the chain is shorter than expected (a torn read, as in next).
func (c *logCursor) readPayload(buf []uint64, undo bool) bool {
	for i := range buf {
		e := c.next()
		if e == nil {
			return false
		}
		if undo {
			buf[i] = e.old
		} else {
			buf[i] = e.val.Load()
		}
	}
	return true
}

// copyMetaFrom copies the consensus arrays (applied, results) from src and
// stamps this State with its new ticket, invalidating any late reader of the
// previous incarnation. Returns false if src was itself reused mid-copy
// (detected via its ticket).
func (s *State) copyMetaFrom(src *State, srcTicket, newTicket SeqTidIdx, aggregate bool) bool {
	if s == src {
		panic(fmt.Sprintf("redo: state reuse collision on ticket %#x", newTicket))
	}
	s.ticket.Store(newTicket)
	s.resetLog(aggregate)
	for i := range s.applied {
		s.applied[i].Store(src.applied[i].Load())
		s.results[i].Store(src.results[i].Load())
		s.from[i].Store(src.from[i].Load())
	}
	return src.ticket.Load() == srcTicket
}
