package redodb

import (
	"bytes"
	"encoding/binary"
	"sort"

	"repro/internal/ptm"
)

// Iterator iterates a consistent, durable snapshot of the database in
// ascending key order — the iterator capability the paper added to the hash
// map for LevelDB/RocksDB API compatibility. The snapshot is taken by a
// single read transaction (reads in RedoOpt-PTM "have their own snapshot of
// the data"), serialized through the engine's byte-result channel, so later
// writes do not disturb an open iterator.
type Iterator struct {
	pairs []kv
	pos   int
}

type kv struct {
	key, val []byte
}

// NewIterator takes a snapshot and positions the iterator before the first
// key (call Next to advance, like LevelDB with SeekToFirst implied).
func (s *Session) NewIterator() *Iterator {
	it, _ := s.NewIteratorTagged()
	return it
}

// NewIteratorTagged takes a snapshot like NewIterator and additionally
// returns the batch tag (WriteOptions.Tag) as observed by the SAME read
// transaction. A multi-shard merger uses the tag to decide whether the
// per-shard snapshots it collected are mutually consistent.
func (s *Session) NewIteratorTagged() (*Iterator, uint64) {
	tag, blob := s.db.eng.ReadWithBytes(s.tid, func(m ptm.Mem) uint64 {
		ptm.EmitBytes(m, serializeAll(m))
		return m.Load(tagRoot)
	})
	return &Iterator{pairs: deserialize(blob), pos: -1}, tag
}

// Merge returns one iterator over the pairs of every snapshot in its,
// positioned before the first key. The snapshots must hold disjoint key
// sets — the shards of a partitioned store — so the merge is a sort of the
// concatenation with no duplicates to resolve.
func Merge(its ...*Iterator) *Iterator {
	var pairs []kv
	for _, it := range its {
		pairs = append(pairs, it.pairs...)
	}
	sort.Slice(pairs, func(i, j int) bool { return bytes.Compare(pairs[i].key, pairs[j].key) < 0 })
	return &Iterator{pairs: pairs, pos: -1}
}

// serializeAll walks the hash map and encodes every pair, sorted by key.
// It runs inside a read transaction and is deterministic, as required of
// closures that helpers may re-execute.
func serializeAll(m ptm.Mem) []byte {
	hdr := m.Load(mapRoot)
	buckets := m.Load(hdr + hdrBuckets)
	nb := m.Load(hdr + hdrNB)
	pairs := make([]kv, 0, m.Load(hdr+hdrCount))
	for i := uint64(0); i < nb; i++ {
		for n := m.Load(buckets + i); n != 0; n = m.Load(n + ndNext) {
			pairs = append(pairs, kv{
				key: ptm.LoadBytes(m, m.Load(n+ndKey)),
				val: ptm.LoadBytes(m, m.Load(n+ndVal)),
			})
		}
	}
	sort.Slice(pairs, func(i, j int) bool { return bytes.Compare(pairs[i].key, pairs[j].key) < 0 })
	var size int
	for _, p := range pairs {
		size += 16 + len(p.key) + len(p.val)
	}
	blob := make([]byte, 0, size)
	var lenBuf [8]byte
	for _, p := range pairs {
		binary.LittleEndian.PutUint64(lenBuf[:], uint64(len(p.key)))
		blob = append(blob, lenBuf[:]...)
		blob = append(blob, p.key...)
		binary.LittleEndian.PutUint64(lenBuf[:], uint64(len(p.val)))
		blob = append(blob, lenBuf[:]...)
		blob = append(blob, p.val...)
	}
	return blob
}

func deserialize(blob []byte) []kv {
	var pairs []kv
	for len(blob) >= 8 {
		kl := binary.LittleEndian.Uint64(blob)
		blob = blob[8:]
		key := blob[:kl]
		blob = blob[kl:]
		vl := binary.LittleEndian.Uint64(blob)
		blob = blob[8:]
		val := blob[:vl]
		blob = blob[vl:]
		pairs = append(pairs, kv{key: key, val: val})
	}
	return pairs
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
// such a key exists. Next continues from there.
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
