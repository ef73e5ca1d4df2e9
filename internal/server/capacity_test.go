package server_test

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/load"
)

// TestOversizedWriteBatchKeepsServing: a cross-shard WRITEBATCH whose
// encoded intent exceeds the coordinator region (four 20 KB values against
// its 32,576 B) gets StatusErr with nothing applied, and the connection and
// the server keep serving.
func TestOversizedWriteBatchKeepsServing(t *testing.T) {
	h := newHarness(t, harnessConfig{shardWords: 1 << 16})
	cl := h.dial(0)
	defer cl.Close()
	shardOf := h.db.Session(0).ShardOf
	var ops []load.BatchOp
	for i := 0; len(ops) < 4; i++ {
		k := []byte(fmt.Sprintf("big-%d", i))
		if len(ops) == 1 && shardOf(k) == shardOf(ops[0].Key) {
			continue // the second key makes the batch cross-shard
		}
		ops = append(ops, load.BatchOp{Key: k, Val: bytes.Repeat([]byte{'v'}, 20_000)})
	}
	if _, err := cl.Write(ops); err == nil {
		t.Fatal("over-capacity cross-shard WRITEBATCH succeeded")
	}
	for _, op := range ops {
		if _, ok, err := cl.Get(op.Key); err != nil || ok {
			t.Fatalf("GET %s after the rejected batch = (found %v, %v), want absent", op.Key, ok, err)
		}
	}
	if _, err := cl.Put([]byte("after"), []byte("v")); err != nil {
		t.Fatalf("PUT on the same connection: %v", err)
	}
	if v, ok, err := cl.Get([]byte("after")); err != nil || !ok || string(v) != "v" {
		t.Fatalf("GET after = %q,%v,%v, want v", v, ok, err)
	}
	if st := h.srv.Stats(); st.Errors != 1 {
		t.Fatalf("server counted %d errors, want 1", st.Errors)
	}
}

// TestPipelinedPutsSplitAtCoordinatorCapacity: one connection keeps 64
// plain 1 KiB PUTs in flight, so the server's per-connection batch would
// outgrow the coordinator region; the server flushes it before it does,
// and every PUT is answered OK and readable.
func TestPipelinedPutsSplitAtCoordinatorCapacity(t *testing.T) {
	h := newHarness(t, harnessConfig{shardWords: 1 << 16})
	const keys, valueSize = 200, 1024
	res, err := load.Run(load.RunConfig{
		Addr:      h.addr,
		Mix:       load.Mix{Name: "put-only"},
		Conns:     1,
		Duration:  200 * time.Millisecond,
		Keys:      keys,
		ValueSize: valueSize,
		Window:    64,
	})
	if err != nil {
		t.Fatalf("load run: %v", err)
	}
	if res.Ops == 0 || res.Errors != 0 {
		t.Fatalf("put-only cell: %d ops, %d errors", res.Ops, res.Errors)
	}
	cl := h.dial(0)
	defer cl.Close()
	pairs, err := cl.Scan(nil, 0)
	if err != nil {
		t.Fatalf("scan: %v", err)
	}
	if len(pairs) == 0 || len(pairs) > keys {
		t.Fatalf("scan found %d keys, want 1..%d", len(pairs), keys)
	}
	for _, p := range pairs {
		if len(p.Val) != valueSize {
			t.Fatalf("key %s holds %d bytes, want %d", p.Key, len(p.Val), valueSize)
		}
	}
}
