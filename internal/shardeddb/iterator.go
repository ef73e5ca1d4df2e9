package shardeddb

import (
	"bytes"
	"sort"
)

// Iterator iterates a cross-shard snapshot in ascending key order. Each
// shard contributes one durable-linearizable snapshot (a single RedoDB read
// transaction); the merge is validated so that every cross-shard batch is
// observed all-or-nothing.
type Iterator struct {
	pairs []kv
	pos   int
}

type kv struct {
	key, val []byte
}

// snapAttempts is how many optimistic snapshot rounds NewIterator tries
// before serializing against cross-shard batches.
const snapAttempts = 3

// NewIterator takes a batch-consistent snapshot across every shard and
// positions the iterator before the first key.
//
// Validation: let L be the volatile lastCommitted sequence number read
// before snapshotting. Every batch with seq <= L was fully applied on all
// shards before L was published, so each per-shard snapshot (taken after)
// contains it entirely. Each snapshot also returns its shard's tag — the
// last batch sequence applied there. If every tag is <= L, no snapshot
// contains any piece of a batch newer than L either, so each batch is
// either in every relevant snapshot or in none. A tag above L means a
// concurrent batch landed mid-collection; retry, and after snapAttempts
// fall back to holding batchMu, under which tags cannot advance.
func (s *Session) NewIterator() *Iterator {
	for try := 0; try < snapAttempts; try++ {
		low := s.db.lastCommitted.Load()
		pairs, maxTag := s.collect()
		if maxTag <= low {
			return newIterator(pairs)
		}
	}
	s.db.batchMu.Lock()
	defer s.db.batchMu.Unlock()
	pairs, _ := s.collect()
	return newIterator(pairs)
}

// collect snapshots every shard, returning the merged pairs and the largest
// per-shard batch tag observed.
func (s *Session) collect() ([]kv, uint64) {
	var pairs []kv
	var maxTag uint64
	for _, sh := range s.sess {
		it, tag := sh.NewIteratorTagged()
		if tag > maxTag {
			maxTag = tag
		}
		for it.Next() {
			pairs = append(pairs, kv{key: it.Key(), val: it.Value()})
		}
	}
	return pairs, maxTag
}

func newIterator(pairs []kv) *Iterator {
	// Shards partition the key space, so a sort of the concatenation is a
	// merge of already-sorted runs with no duplicates.
	sort.Slice(pairs, func(i, j int) bool { return bytes.Compare(pairs[i].key, pairs[j].key) < 0 })
	return &Iterator{pairs: pairs, pos: -1}
}

// Next advances the iterator, reporting whether a pair is available.
func (it *Iterator) Next() bool {
	if it.pos+1 >= len(it.pairs) {
		it.pos = len(it.pairs)
		return false
	}
	it.pos++
	return true
}

// Seek positions the iterator at the first key >= target, reporting whether
// such a key exists.
func (it *Iterator) Seek(target []byte) bool {
	i := sort.Search(len(it.pairs), func(i int) bool {
		return bytes.Compare(it.pairs[i].key, target) >= 0
	})
	it.pos = i
	return i < len(it.pairs)
}

// Valid reports whether the iterator is positioned at a pair.
func (it *Iterator) Valid() bool { return it.pos >= 0 && it.pos < len(it.pairs) }

// Key returns the current key; only valid when Valid().
func (it *Iterator) Key() []byte { return it.pairs[it.pos].key }

// Value returns the current value; only valid when Valid().
func (it *Iterator) Value() []byte { return it.pairs[it.pos].val }

// Len reports the number of pairs in the snapshot.
func (it *Iterator) Len() int { return len(it.pairs) }
