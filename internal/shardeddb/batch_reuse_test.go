package shardeddb

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
)

// The WriteBatch arena-reuse suite (PR 9): a network server assembles one
// batch per connection from frame-decode scratch buffers and recycles it
// with Clear after every Write. These tests pin the two halves of that
// contract — Put snapshots its arguments (caller scratch may be overwritten
// immediately), and no Write path retains arena bytes past return (Clear
// may recycle them immediately), across the single-shard fast path, the
// cross-shard coordinator path, the detectable path, and buffered mode.

// TestWriteBatchArenaReuse hammers one reused batch through sync and
// buffered DBs, overwriting both the caller scratch and the arena between
// rounds, then verifies every round's writes landed with the bytes they had
// at Put time.
func TestWriteBatchArenaReuse(t *testing.T) {
	for _, buffered := range []bool{false, true} {
		t.Run(fmt.Sprintf("buffered=%v", buffered), func(t *testing.T) {
			g := NewGroup(GroupConfig{Shards: 4, Threads: 1, Buffered: buffered})
			db := Open(g, Options{Threads: 1, Buffered: buffered, PersistEvery: -1})
			s := db.Session(0)

			scratchKey := make([]byte, 16)
			scratchVal := make([]byte, 32)
			b := &WriteBatch{}
			const rounds, perBatch = 20, 8
			for r := 0; r < rounds; r++ {
				b.Clear()
				for i := 0; i < perBatch; i++ {
					// The scratch buffers are overwritten in place for every
					// op — exactly what a connection's frame decoder does.
					key := fmt.Appendf(scratchKey[:0], "reuse-%02d-%02d", r, i)
					val := fmt.Appendf(scratchVal[:0], "value-%02d-%02d-xxxx", r, i)
					if r > 0 && i == perBatch-1 {
						b.Delete(fmt.Appendf(scratchKey[:0], "reuse-%02d-%02d", r-1, 0))
					} else {
						b.Put(key, val)
					}
				}
				if r%3 == 2 {
					s.Apply(b, WriteOptions{Client: 77, Seq: uint64(r + 1)})
				} else {
					s.Write(b)
				}
				// Poison the arena after Write returns: if any path retained
				// a reference into it, the stored values would corrupt.
				for i := range b.buf {
					b.buf[i] = 0xee
				}
			}
			if buffered {
				s.Sync()
			}
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
							t.Fatalf("round %d op %d: delete-slot key unexpectedly present", r, i)
						}
					case deleted:
						if ok {
							t.Fatalf("round %d op %d: deleted key still present (%q)", r, i, got)
						}
					case !ok:
						t.Fatalf("round %d op %d: key missing", r, i)
					case !bytes.Equal(got, want):
						t.Fatalf("round %d op %d: value corrupted by arena reuse: %q != %q", r, i, got, want)
					}
				}
			}
		})
	}
}

// TestWriteBatchPutSnapshots pins the Put-time snapshot alone: mutating the
// caller's slices after Put but before Write must not change what lands.
func TestWriteBatchPutSnapshots(t *testing.T) {
	g := NewGroup(GroupConfig{Shards: 2, Threads: 1})
	s := Open(g, Options{Threads: 1}).Session(0)
	key := []byte("snap-key")
	val := []byte("snap-val")
	b := &WriteBatch{}
	b.Put(key, val)
	copy(key, "CLOBBERED")
	copy(val, "CLOBBERED")
	s.Write(b)
	if got, ok := s.Get([]byte("snap-key")); !ok || !bytes.Equal(got, []byte("snap-val")) {
		t.Fatalf("post-Put caller mutation leaked into the store: %q %v", got, ok)
	}
}

// TestRaceSmokeConnBatches is the pipelined-connection shape under -race:
// N sessions (one per simulated connection) each recycle their own arena
// batch while hammering an overlapping key range, concurrently with
// cross-shard iterator snapshots. Run by ci.sh's -race smoke line.
func TestRaceSmokeConnBatches(t *testing.T) {
	const conns = 4
	g := NewGroup(GroupConfig{Shards: 4, Threads: conns + 1})
	db := Open(g, Options{Threads: conns + 1})
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			s := db.Session(tid)
			b := &WriteBatch{}
			scratch := make([]byte, 0, 32)
			for r := 0; r < 40; r++ {
				b.Clear()
				for i := 0; i < 6; i++ {
					// Overlapping keys across all connections.
					k := fmt.Appendf(scratch[:0], "hot-%02d", (r+i*7)%16)
					b.Put(k, fmt.Appendf(nil, "c%d-r%d", tid, r))
				}
				if r%2 == 0 {
					s.Write(b)
				} else {
					s.Apply(b, WriteOptions{Client: uint64(tid) + 1, Seq: uint64(r/2) + 1})
				}
			}
		}(c)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		s := db.Session(conns)
		for i := 0; i < 10; i++ {
			it := s.NewIterator()
			for it.Next() {
				if len(it.Key()) == 0 {
					t.Error("empty key in snapshot")
				}
			}
		}
	}()
	wg.Wait()
}
