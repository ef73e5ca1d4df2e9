package redodb_test

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/pmem"
	"repro/internal/redodb"
	"repro/internal/shardeddb"
)

// TestBatchDigestGolden pins BatchDigest for a fixed batch of puts and
// deletes (an empty value and an empty key included). Receipts durable in
// a dedup table carry these digests, so a change here would make every
// retry of a pre-change request report ErrSeqReused instead of
// deduplicating.
func TestBatchDigestGolden(t *testing.T) {
	var b redodb.WriteBatch
	b.Put([]byte("alpha"), []byte("one"))
	b.Delete([]byte("beta"))
	b.Put([]byte("gamma"), nil)
	b.Put([]byte(""), []byte("empty-key"))
	b.Delete([]byte("alpha"))
	if got, want := redodb.BatchDigest(&b), uint64(0xebb32f8ae79aa410); got != want {
		t.Errorf("BatchDigest = %#x, want %#x", got, want)
	}
	if got, want := redodb.BatchDigest(&redodb.WriteBatch{}), uint64(0xd71e358174147ca6); got != want {
		t.Errorf("BatchDigest(empty) = %#x, want %#x", got, want)
	}
}

// batchStore is the write surface RedoDB and the sharded front-end share.
type batchStore interface {
	Apply(*redodb.WriteBatch, redodb.WriteOptions) (bool, error)
	Write(*redodb.WriteBatch)
	Get(key []byte) ([]byte, bool)
	Sync()
}

// TestWriteBatchArenaReuse pins the WriteBatch ownership contract that lets
// a server assemble one batch per connection from frame-decode scratch
// buffers and recycle it with Clear after every write: Put snapshots its
// arguments (the caller's scratch is overwritten for every op), and no
// write path retains arena bytes past its return (the arena is poisoned
// after each write). It hammers one reused batch through RedoDB and a
// 4-shard front-end — single-shard and cross-shard batches, plain and
// detectable writes — in synchronous and buffered mode, then checks every
// round's writes landed with the bytes they had at Put time.
func TestWriteBatchArenaReuse(t *testing.T) {
	for _, buffered := range []bool{false, true} {
		t.Run(fmt.Sprintf("buffered=%v", buffered), func(t *testing.T) {
			arenaReuse(t, "redodb", redodb.Open(
				pmem.New(pmem.Config{Mode: pmem.Strict, RegionWords: 1 << 14, Regions: 3}),
				redodb.Options{Threads: 1, Buffered: buffered}).Session(0))
			arenaReuse(t, "shardeddb-4", shardeddb.Open(
				shardeddb.NewGroup(shardeddb.GroupConfig{Shards: 4, Threads: 1, Buffered: buffered}),
				shardeddb.Options{Threads: 1, Buffered: buffered, PersistEvery: -1}).Session(0))
		})
	}
}

func arenaReuse(t *testing.T, name string, s batchStore) {
	scratchKey := make([]byte, 16)
	scratchVal := make([]byte, 32)
	b := &redodb.WriteBatch{}
	const rounds, perBatch = 20, 8
	for r := 0; r < rounds; r++ {
		b.Clear()
		for i := 0; i < perBatch; i++ {
			// The scratch buffers are overwritten in place for every op —
			// exactly what a connection's frame decoder does.
			key := fmt.Appendf(scratchKey[:0], "reuse-%02d-%02d", r, i)
			val := fmt.Appendf(scratchVal[:0], "value-%02d-%02d-xxxx", r, i)
			if r > 0 && i == perBatch-1 {
				b.Delete(fmt.Appendf(scratchKey[:0], "reuse-%02d-%02d", r-1, 0))
			} else {
				b.Put(key, val)
			}
		}
		if r%3 == 2 {
			if _, err := s.Apply(b, redodb.WriteOptions{Client: 77, Seq: uint64(r + 1)}); err != nil {
				t.Fatalf("%s round %d: %v", name, r, err)
			}
		} else {
			s.Write(b)
		}
		// Poison the arena after the write returns: if any path retained
		// a reference into it, the stored values would corrupt.
		b.Each(func(key, value []byte, _ bool) {
			for i := range key {
				key[i] = 0xee
			}
			for i := range value {
				value[i] = 0xee
			}
		})
	}
	s.Sync()
	for r := 0; r < rounds; r++ {
		for i := 0; i < perBatch; i++ {
			key := []byte(fmt.Sprintf("reuse-%02d-%02d", r, i))
			want := []byte(fmt.Sprintf("value-%02d-%02d-xxxx", r, i))
			deleted := r < rounds-1 && i == 0
			skipped := r > 0 && i == perBatch-1
			got, ok := s.Get(key)
			switch {
			case skipped:
				if ok {
					t.Fatalf("%s round %d op %d: delete-slot key unexpectedly present", name, r, i)
				}
			case deleted:
				if ok {
					t.Fatalf("%s round %d op %d: deleted key still present (%q)", name, r, i, got)
				}
			case !ok:
				t.Fatalf("%s round %d op %d: key missing", name, r, i)
			case !bytes.Equal(got, want):
				t.Fatalf("%s round %d op %d: value corrupted by arena reuse: %q != %q", name, r, i, got, want)
			}
		}
	}
}
