package redodb

import (
	"encoding/json"
	"errors"

	"repro/internal/palloc"
	"repro/internal/ptm"
)

// heapRoots is the database's root enumerator for the allocator's
// reachability recovery (palloc.Recover): it visits every heap block the
// persistent state references — the map header, the bucket array, each
// node with its key and value blocks, and the dedup table's client index
// and records. Anything the enumerator does not reach is, by definition,
// leaked.
func (db *DB) heapRoots(m ptm.Mem) palloc.RootEnumerator {
	return func(visit func(uint64)) {
		if hdr := m.Load(mapRoot); hdr != 0 {
			visit(hdr)
			buckets, nb := m.Load(hdr+hdrBuckets), m.Load(hdr+hdrNB)
			visit(buckets)
			for i := uint64(0); i < nb; i++ {
				for n := m.Load(buckets + i); n != 0; n = m.Load(n + ndNext) {
					visit(n)
					visit(m.Load(n + ndKey))
					visit(m.Load(n + ndVal))
				}
			}
		}
		dedup.Blocks(m, visit)
	}
}

// recoverHeap runs the allocator's reachability pass inside a transaction:
// blocks stranded between allocation and publication by a crash are
// reclaimed, drained spans are compacted, and the class lists are rebuilt.
// On a clean heap (every open after a clean shutdown) it stores nothing.
func (db *DB) recoverHeap() {
	db.eng.Update(0, func(m ptm.Mem) uint64 {
		palloc.Recover(memShim{m}, db.heapRoots(m))
		return 0
	})
}

// AllocStats returns the allocator's space breakdown (per-class occupancy,
// large/free pages, heap frontier) from a read transaction — the raw
// material of the Fig-8-style bytes-per-key figure. The breakdown leaves
// the transaction through the engine's byte-result channel, keeping the
// closure free of captured-variable writes (helpers may re-execute it).
func (db *DB) AllocStats() palloc.HeapStats {
	_, blob := db.eng.ReadWithBytes(0, func(m ptm.Mem) uint64 {
		b, err := json.Marshal(palloc.Stats(memShim{m}))
		if err != nil {
			panic(err)
		}
		ptm.EmitBytes(m, b)
		return 0
	})
	var st palloc.HeapStats
	if err := json.Unmarshal(blob, &st); err != nil {
		panic(err)
	}
	return st
}

// AllocReconcile audits the allocator against the database's reachable
// blocks without mutating anything: it returns an error if any allocated
// block is unreachable (a leak) or any reachable address is not a live
// block (corruption). Chaos sweeps call it after every post-crash
// recovery.
func (db *DB) AllocReconcile() error {
	_, msg := db.eng.ReadWithBytes(0, func(m ptm.Mem) uint64 {
		if err := palloc.Reconcile(memShim{m}, db.heapRoots(m)); err != nil {
			ptm.EmitBytes(m, []byte(err.Error()))
		}
		return 0
	})
	if len(msg) == 0 {
		return nil
	}
	return errors.New(string(msg))
}
