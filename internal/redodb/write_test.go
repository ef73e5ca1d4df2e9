package redodb

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/pmem"
)

// TestWriteOptionsMatrix drives the one write path over every option
// combination — plain, Sync, Client/Seq, Client/Seq + Sync — and batch shape
// (empty, one op, several ops with a delete), in synchronous and buffered
// mode. Each cell checks the applied flag and error, the batch's effect,
// the receipt (WasApplied, DetectStats: a plain write must leave the dedup
// table untouched), the durable epoch (Sync is durable on return; a
// buffered write without it is not), a retry (deduplicated iff detectable)
// and seq re-use (ErrSeqReused, nothing applied).
func TestWriteOptionsMatrix(t *testing.T) {
	const client, seq = 7, 1
	options := []struct {
		name string
		o    WriteOptions
	}{
		{"plain", WriteOptions{}},
		{"sync", WriteOptions{Sync: true}},
		{"client-seq", WriteOptions{Client: client, Seq: seq}},
		{"client-seq-sync", WriteOptions{Sync: true, Client: client, Seq: seq}},
	}
	shapes := []struct {
		name string
		ops  func(b *WriteBatch, val string)
		keys []string // put by the batch
		len  uint64   // keys in the store after the batch
	}{
		{"empty", func(*WriteBatch, string) {}, nil, 1},
		{"one-op", func(b *WriteBatch, val string) { b.Put([]byte("x"), []byte(val)) }, []string{"x"}, 2},
		{"multi-op", func(b *WriteBatch, val string) {
			b.Put([]byte("x"), []byte(val))
			b.Put([]byte("y"), []byte(val))
			b.Delete([]byte("z"))
		}, []string{"x", "y"}, 2},
	}
	for _, buffered := range []bool{false, true} {
		for _, opt := range options {
			for _, shape := range shapes {
				name := fmt.Sprintf("buffered=%v/%s/%s", buffered, opt.name, shape.name)
				t.Run(name, func(t *testing.T) {
					pool := pmem.New(pmem.Config{Mode: pmem.Strict, RegionWords: 1 << 14, Regions: 3})
					db := Open(pool, Options{Threads: 1, Buffered: buffered})
					s := db.Session(0)
					s.Put([]byte("z"), []byte("old"))
					db.Persist()
					base := db.DurableEpoch()
					detectable := opt.o.Client != 0

					b := &WriteBatch{}
					shape.ops(b, "v1")
					if applied, err := s.Apply(b, opt.o); !applied || err != nil {
						t.Fatalf("Apply = (%v, %v), want (true, nil)", applied, err)
					}
					for _, k := range shape.keys {
						if v, ok := s.Get([]byte(k)); !ok || string(v) != "v1" {
							t.Fatalf("key %s = %q,%v after Apply", k, v, ok)
						}
					}
					if n := s.Len(); n != shape.len {
						t.Fatalf("%d keys after Apply, want %d", n, shape.len)
					}
					if got := s.WasApplied(client, seq); got != detectable {
						t.Fatalf("WasApplied = %v, want %v", got, detectable)
					}
					if r, _, _ := s.DetectStats(client); r != boolCount(detectable) {
						t.Fatalf("receipts = %d, want %d", r, boolCount(detectable))
					}
					if durable := db.DurableEpoch(); buffered && !opt.o.Sync {
						if durable != base {
							t.Fatalf("durable epoch moved %d -> %d without Sync", base, durable)
						}
					} else if durable < s.LastEpoch() {
						t.Fatalf("durable epoch %d < last epoch %d on return", durable, s.LastEpoch())
					}

					// A retry applies again iff the write is plain.
					if applied, err := s.Apply(b, opt.o); applied == detectable || err != nil {
						t.Fatalf("retry = (%v, %v), want (%v, nil)", applied, err, !detectable)
					}
					if r, _, _ := s.DetectStats(client); r != boolCount(detectable) {
						t.Fatalf("receipts after retry = %d, want %d", r, boolCount(detectable))
					}
					if !detectable {
						return
					}
					// Re-using the seq for a different batch applies nothing.
					other := &WriteBatch{}
					shape.ops(other, "v2")
					other.Put([]byte("reuse"), []byte("v2"))
					if applied, err := s.Apply(other, opt.o); applied || !errors.Is(err, ErrSeqReused) {
						t.Fatalf("seq re-use = (%v, %v), want (false, ErrSeqReused)", applied, err)
					}
					if s.Has([]byte("reuse")) {
						t.Fatal("seq re-use applied its batch")
					}
					for _, k := range shape.keys {
						if v, _ := s.Get([]byte(k)); string(v) != "v1" {
							t.Fatalf("key %s = %q after rejected re-use", k, v)
						}
					}
				})
			}
		}
	}
}

func boolCount(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
