package shardeddb

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/redodb"
)

// TestWriteOptionsMatrix drives the one write path over every option
// combination — plain, Sync, Client/Seq, Client/Seq + Sync — and batch shape
// (empty, single-shard, cross-shard), in synchronous and buffered mode. Each
// cell checks the applied flag and error, the batch's effect, the receipt
// (WasApplied, DetectStats: a plain write must leave every dedup table
// untouched), the durable epochs (Sync is durable on return on every shard,
// a cross-shard batch always is, a buffered single-shard write without Sync
// is not), a retry (deduplicated iff detectable) and seq re-use
// (ErrSeqReused with nothing applied: a single-shard batch's own shard and a
// cross-shard batch's home shard both compare the receipt digest).
func TestWriteOptionsMatrix(t *testing.T) {
	const shards, client, seq = 4, 7, 1
	options := []struct {
		name string
		o    WriteOptions
	}{
		{"plain", WriteOptions{}},
		{"sync", WriteOptions{Sync: true}},
		{"client-seq", WriteOptions{Client: client, Seq: seq}},
		{"client-seq-sync", WriteOptions{Sync: true, Client: client, Seq: seq}},
	}
	// keysOn returns n keys that all live on shard sh.
	probe := Open(NewGroup(GroupConfig{Shards: shards, Threads: 1}), Options{Threads: 1}).Session(0)
	keysOn := func(sh, n int) []string {
		var out []string
		for i := 0; len(out) < n; i++ {
			if k := fmt.Sprintf("key%03d", i); probe.ShardOf([]byte(k)) == sh {
				out = append(out, k)
			}
		}
		return out
	}
	solo, zero := keysOn(1, 3), keysOn(0, 2)
	shapes := []struct {
		name string
		keys []string // put by the batch
		del  string   // deleted by the batch, on the first key's shard
	}{
		{"empty", nil, ""},
		{"single-shard", solo[:2], solo[2]},
		{"cross-shard", []string{zero[0], keysOn(2, 1)[0]}, zero[1]},
	}
	batch := func(keys []string, del, val string) *WriteBatch {
		b := &WriteBatch{}
		for _, k := range keys {
			b.Put([]byte(k), []byte(val))
		}
		if del != "" {
			b.Delete([]byte(del))
		}
		return b
	}
	for _, buffered := range []bool{false, true} {
		for _, opt := range options {
			for _, shape := range shapes {
				name := fmt.Sprintf("buffered=%v/%s/%s", buffered, opt.name, shape.name)
				t.Run(name, func(t *testing.T) {
					var db *DB
					if buffered {
						db = Open(bufGroup(shards), bufOpts)
					} else {
						db = Open(NewGroup(GroupConfig{Shards: shards, Threads: 1}), Options{Threads: 1})
					}
					s := db.Session(0)
					db.Persist()
					detectable := opt.o.Client != 0

					b := batch(shape.keys, shape.del, "v1")
					if applied, err := s.Apply(b, opt.o); !applied || err != nil {
						t.Fatalf("Apply = (%v, %v), want (true, nil)", applied, err)
					}
					for _, k := range shape.keys {
						if v, ok := s.Get([]byte(k)); !ok || string(v) != "v1" {
							t.Fatalf("key %s = %q,%v after Apply", k, v, ok)
						}
					}
					if got := s.WasApplied(client, seq); got != detectable {
						t.Fatalf("WasApplied = %v, want %v", got, detectable)
					}
					if r, _, _ := s.DetectStats(client); r != boolCount(detectable) {
						t.Fatalf("receipts = %d, want %d", r, boolCount(detectable))
					}
					lagging := 0
					for sh := 0; sh < shards; sh++ {
						if db.DurableEpoch(sh) < db.CommittedEpoch(sh) {
							lagging++
						}
					}
					// A buffered write without Sync leaves its shard lagging
					// unless it committed nothing (a plain empty batch) or
					// went through the coordinator, whose barrier persists
					// every touched shard before the intent retires.
					committed := detectable || len(shape.keys) > 0
					wantLag := buffered && !opt.o.Sync && committed && shape.name != "cross-shard"
					if (lagging > 0) != wantLag {
						t.Fatalf("%d shards lag their committed epoch, want lag=%v", lagging, wantLag)
					}

					// A retry applies again iff the write is plain.
					if applied, err := s.Apply(b, opt.o); applied == detectable || err != nil {
						t.Fatalf("retry = (%v, %v), want (%v, nil)", applied, err, !detectable)
					}
					if r, _, _ := s.DetectStats(client); r != boolCount(detectable) {
						t.Fatalf("receipts after retry = %d, want %d", r, boolCount(detectable))
					}
					if !detectable || len(shape.keys) == 0 {
						return
					}
					// Re-using the seq for the same keys with other values
					// applies nothing.
					applied, err := s.Apply(batch(shape.keys, shape.del, "v2"), opt.o)
					if applied || !errors.Is(err, redodb.ErrSeqReused) {
						t.Fatalf("seq re-use = (%v, %v), want ErrSeqReused", applied, err)
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

// TestCrossShardReceiptConflictStillApplies: once a cross-shard intent is
// published the batch must apply on every shard, even when the home shard
// turns out to hold the seq's receipt for another operation (a client id
// driven from two sessions at once). The home sub-batch then applies
// unreceipted and tagged, so the batch stays atomic.
func TestCrossShardReceiptConflictStillApplies(t *testing.T) {
	const client, seq, tag = 9, 5, 1
	db := Open(NewGroup(GroupConfig{Shards: 4, Threads: 1}), Options{Threads: 1})
	s := db.Session(0)
	home := db.homeShard(client)
	var keys []string
	var onHome string
	for i := 0; len(keys) < 8 || onHome == ""; i++ {
		k := fmt.Sprintf("conflict%03d", i)
		if s.ShardOf([]byte(k)) == home && onHome == "" {
			onHome = k
			continue
		}
		keys = append(keys, k)
	}
	other := &WriteBatch{}
	other.Put([]byte(onHome), []byte("other"))
	if !mustApply(s, other, WriteOptions{Client: client, Seq: seq}) {
		t.Fatal("conflicting receipt not recorded")
	}

	b := &WriteBatch{}
	for _, k := range append(keys, onHome) {
		b.Put([]byte(k), []byte("batch"))
	}
	rcpt := &intentReceipt{client: client, seq: seq, digest: redodb.BatchDigest(b), home: home}
	s.split(b)
	s.applySubs(tag, nil, rcpt)
	for _, k := range append(keys, onHome) {
		if v, ok := s.Get([]byte(k)); !ok || string(v) != "batch" {
			t.Fatalf("key %s = %q,%v: batch torn by the receipt conflict", k, v, ok)
		}
	}
	if got := s.sess[home].TagAt(); got != tag {
		t.Fatalf("home shard tag = %d, want %d", got, tag)
	}
}

// TestApplyRejectsOversizedCrossShardBatch: a cross-shard batch whose
// encoded intent exceeds the coordinator region returns ErrBatchTooLarge
// with nothing applied, plain or detectable, and Fits turns false exactly
// at that boundary. A single-shard batch never touches the coordinator, so
// the same bytes on one shard still apply.
func TestApplyRejectsOversizedCrossShardBatch(t *testing.T) {
	s := Open(NewGroup(GroupConfig{Shards: 4, Threads: 1, ShardWords: 1 << 16}), Options{Threads: 1}).Session(0)
	val := make([]byte, 1024)
	b := &WriteBatch{}
	for i := 0; ; i++ {
		k := []byte(fmt.Sprintf("key%03d", i))
		if !Fits(b, k, val) {
			break
		}
		b.Put(k, val)
	}
	if _, err := s.Apply(b, WriteOptions{}); err != nil {
		t.Fatalf("batch filled up to Fits: %v", err)
	}
	b.Put([]byte("one-more"), val)
	for _, o := range []WriteOptions{{}, {Client: 3, Seq: 1}} {
		if _, err := s.Apply(b, o); !errors.Is(err, ErrBatchTooLarge) {
			t.Fatalf("over-capacity cross-shard Apply(%+v) = %v, want ErrBatchTooLarge", o, err)
		}
	}
	if s.Has([]byte("one-more")) || s.WasApplied(3, 1) {
		t.Fatal("a rejected batch left an effect behind")
	}
	single := &WriteBatch{}
	for i := 0; single.Len() < b.Len(); i++ {
		if k := []byte(fmt.Sprintf("solo%03d", i)); s.ShardOf(k) == 1 {
			single.Put(k, val)
		}
	}
	if _, err := s.Apply(single, WriteOptions{}); err != nil {
		t.Fatalf("single-shard batch of the same size: %v", err)
	}
}
