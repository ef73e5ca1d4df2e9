package shardeddb

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
)

// The arena-reuse half of the WriteBatch contract (no write path retains
// arena bytes past its return) is pinned for both stores by redodb's
// TestWriteBatchArenaReuse. These tests pin the Put-time snapshot on the
// sharded path and the pipelined-connection shape under -race.

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

// TestApplyAllocations pins the heap allocations of a reused 64-PUT batch
// applied across 8 shards. split copies the ops into the session's reused
// sub-batches, so the cost is per touched shard (its snapshot and
// transaction closure) plus the coordinator intent, not per op: 19 in
// steady state, against 193 when split gave every op fresh key and value
// copies.
func TestApplyAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates on the measured path")
	}
	s := Open(NewGroup(GroupConfig{Shards: 8, Threads: 1, ShardWords: 1 << 16}), Options{Threads: 1}).Session(0)
	keys := make([][]byte, 64)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key-%03d", i))
	}
	val := make([]byte, 100)
	var b WriteBatch
	// Warm the engines past one lap of their state rings: log chunks and
	// aggregation maps are allocated on a state's first use and kept.
	for i := 0; i < 300; i++ {
		b.Clear()
		for _, k := range keys {
			b.Put(k, val)
		}
		s.Write(&b)
	}
	if a := testing.AllocsPerRun(50, func() {
		b.Clear()
		for _, k := range keys {
			b.Put(k, val)
		}
		s.Write(&b)
	}); a > 96 {
		t.Errorf("64-PUT 8-shard Apply: %.1f allocs, want <= 96", a)
	}
}
