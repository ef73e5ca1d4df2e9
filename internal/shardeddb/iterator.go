package shardeddb

import "repro/internal/redodb"

// Iterator is RedoDB's iterator. The sharded front-end's iterates a merge of
// per-shard snapshots (redodb.Merge), each one durable-linearizable RedoDB
// read transaction, validated so that every cross-shard batch is observed
// all-or-nothing.
type Iterator = redodb.Iterator

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
		its, maxTag := s.collect()
		if maxTag <= low {
			return redodb.Merge(its...)
		}
	}
	s.db.batchMu.Lock()
	defer s.db.batchMu.Unlock()
	its, _ := s.collect()
	return redodb.Merge(its...)
}

// collect snapshots every shard, returning the snapshots and the largest
// per-shard batch tag observed.
func (s *Session) collect() ([]*Iterator, uint64) {
	its := make([]*Iterator, len(s.sess))
	var maxTag uint64
	for i, sh := range s.sess {
		var tag uint64
		its[i], tag = sh.NewIteratorTagged()
		maxTag = max(maxTag, tag)
	}
	return its, maxTag
}
