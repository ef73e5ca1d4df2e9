package shardeddb

import (
	"fmt"
	"testing"

	"repro/internal/pmem"
)

// detPut is a detectable one-put batch for request (client, seq), reporting
// whether it applied. It panics on an error, so it is safe on any goroutine.
func detPut(s *Session, client, seq uint64, key, val []byte) bool {
	b := &WriteBatch{}
	b.Put(key, val)
	return mustApply(s, b, WriteOptions{Client: client, Seq: seq})
}

// detDelete is detPut's one-delete counterpart.
func detDelete(s *Session, client, seq uint64, key []byte) bool {
	b := &WriteBatch{}
	b.Delete(key)
	return mustApply(s, b, WriteOptions{Client: client, Seq: seq})
}

func mustApply(s *Session, b *WriteBatch, o WriteOptions) bool {
	applied, err := s.Apply(b, o)
	if err != nil {
		panic(fmt.Sprintf("Apply(%+v): %v", o, err))
	}
	return applied
}

func TestShardedDetectableOps(t *testing.T) {
	g := NewGroup(GroupConfig{Shards: 4, Threads: 1})
	s := Open(g, Options{Threads: 1}).Session(0)
	const client = 11

	if !detPut(s, client, 1, []byte("a-key"), []byte("v1")) {
		t.Fatal("first detectable put deduplicated")
	}
	if detPut(s, client, 1, []byte("a-key"), []byte("v1")) {
		t.Fatal("retried detectable put applied twice")
	}
	if !s.WasApplied(client, 1) {
		t.Fatal("WasApplied false after commit")
	}
	if !detDelete(s, client, 2, []byte("a-key")) {
		t.Fatal("first detectable delete deduplicated")
	}
	if detDelete(s, client, 2, []byte("a-key")) {
		t.Fatal("retried detectable delete applied twice")
	}

	// Cross-shard detectable batch: scattered keys, then a retry.
	b := &WriteBatch{}
	for i := 0; i < 6; i++ {
		b.Put([]byte(fmt.Sprintf("%c-det", 'a'+i)), []byte("w"))
	}
	if !mustApply(s, b, WriteOptions{Client: client, Seq: 3}) {
		t.Fatal("first detectable batch deduplicated")
	}
	if mustApply(s, b, WriteOptions{Client: client, Seq: 3}) {
		t.Fatal("retried detectable batch applied twice")
	}
	for i := 0; i < 6; i++ {
		if !s.Has([]byte(fmt.Sprintf("%c-det", 'a'+i))) {
			t.Fatalf("batch key %d missing", i)
		}
	}
	// Single-shard detectable batch takes the fast path.
	sb := &WriteBatch{}
	sb.Put([]byte("solo"), []byte("x"))
	if !mustApply(s, sb, WriteOptions{Client: client, Seq: 4}) {
		t.Fatal("single-shard detectable batch deduplicated")
	}
	if mustApply(s, sb, WriteOptions{Client: client, Seq: 4}) {
		t.Fatal("retried single-shard detectable batch applied twice")
	}
	// Empty batch: still consumes the seq with a bare receipt.
	if !mustApply(s, &WriteBatch{}, WriteOptions{Client: client, Seq: 5}) {
		t.Fatal("empty detectable batch deduplicated")
	}
	if mustApply(s, &WriteBatch{}, WriteOptions{Client: client, Seq: 5}) {
		t.Fatal("retried empty detectable batch applied twice")
	}

	if r, mx, a := s.DetectStats(client); r != 5 || mx != 5 || a != 0 {
		t.Fatalf("DetectStats = (%d, %d, %d), want (5, 5, 0)", r, mx, a)
	}
	s.AckApplied(client, 5)
	if r, mx, a := s.DetectStats(client); r != 5 || mx != 5 || a != 5 {
		t.Fatalf("DetectStats after ack = (%d, %d, %d), want (5, 5, 5)", r, mx, a)
	}
	for seq := uint64(1); seq <= 5; seq++ {
		if !s.WasApplied(client, seq) {
			t.Fatalf("acked seq %d no longer applied", seq)
		}
	}
}

// TestShardedDetectableCrashExactlyOnce sweeps power failures across
// cross-shard detectable batches and runs the client recovery protocol after
// each: probe WasApplied, retry unapplied requests, and verify every batch is
// present exactly once and atomically — whether it was finished by the first
// attempt, by recovery's roll-forward of the intent (which re-records the
// receipt on the home shard), or by the retry.
func TestShardedDetectableCrashExactlyOnce(t *testing.T) {
	const batches = 6
	const perBatch = 5
	const client = 17
	key := func(b uint64, i int) []byte {
		return []byte(fmt.Sprintf("%c-det%02d", 'a'+i, b))
	}
	for _, shards := range []int{1, 8} {
		for fail := int64(20); ; fail += 101 {
			g := NewGroup(GroupConfig{Shards: shards, Threads: 1, Mode: pmem.Strict})
			crashed := false
			func() {
				defer func() {
					if r := recover(); r != nil {
						if r != pmem.ErrSimulatedPowerFailure {
							panic(r)
						}
						crashed = true
					}
					g.InjectFailure(-1)
				}()
				s := Open(g, Options{Threads: 1}).Session(0)
				g.InjectFailure(fail)
				for b := uint64(1); b <= batches; b++ {
					batch := &WriteBatch{}
					for i := 0; i < perBatch; i++ {
						batch.Put(key(b, i), []byte(fmt.Sprintf("v%d", b)))
					}
					mustApply(s, batch, WriteOptions{Client: client, Seq: b})
				}
			}()
			if !crashed {
				break
			}
			g.Crash(pmem.CrashConservative, nil)
			s := Open(g, Options{Threads: 1}).Session(0)

			// Atomicity + probe soundness: a receipted batch is fully
			// present, an unreceipted one fully absent (recovery already
			// rolled forward or discarded any surviving intent).
			for b := uint64(1); b <= batches; b++ {
				present := 0
				for i := 0; i < perBatch; i++ {
					if s.Has(key(b, i)) {
						present++
					}
				}
				if s.WasApplied(client, b) && present != perBatch {
					t.Fatalf("shards=%d fail=%d: batch %d receipted but %d/%d keys present",
						shards, fail, b, present, perBatch)
				}
				if !s.WasApplied(client, b) && present != 0 {
					t.Fatalf("shards=%d fail=%d: batch %d unreceipted but %d keys present",
						shards, fail, b, present)
				}
			}

			// Retry storm: re-issue every batch; exactly the unreceipted
			// ones must apply.
			for b := uint64(1); b <= batches; b++ {
				pre := s.WasApplied(client, b)
				batch := &WriteBatch{}
				for i := 0; i < perBatch; i++ {
					batch.Put(key(b, i), []byte(fmt.Sprintf("v%d", b)))
				}
				if appliedNow := mustApply(s, batch, WriteOptions{Client: client, Seq: b}); appliedNow == pre {
					t.Fatalf("shards=%d fail=%d: retry of batch %d applied=%v with prior receipt=%v",
						shards, fail, b, appliedNow, pre)
				}
			}
			for b := uint64(1); b <= batches; b++ {
				for i := 0; i < perBatch; i++ {
					if v, ok := s.Get(key(b, i)); !ok || string(v) != fmt.Sprintf("v%d", b) {
						t.Fatalf("shards=%d fail=%d: after retries batch %d key %d = %q,%v",
							shards, fail, b, i, v, ok)
					}
				}
			}
			if r, mx, _ := s.DetectStats(client); r != batches || mx != batches {
				t.Fatalf("shards=%d fail=%d: receipts=%d maxSeq=%d, want %d each",
					shards, fail, r, mx, uint64(batches))
			}
		}
	}
}

// TestIntentReceiptRoundTrip exercises the flagged intent payload encoding,
// including the home shard carrying no operations of its own.
func TestIntentReceiptRoundTrip(t *testing.T) {
	ops := []batchOp{
		{key: []byte("k1"), val: []byte("v1")},
		{key: []byte("k2"), del: true},
	}
	plain := encodeIntent(ops, nil)
	gotOps, rcpt := decodeIntent(plain, 4)
	if rcpt != nil || len(gotOps) != 2 || string(gotOps[0].key) != "k1" || !gotOps[1].del {
		t.Fatalf("plain round trip = %+v, %+v", gotOps, rcpt)
	}
	want := &intentReceipt{client: 7, seq: 42, digest: 0xdead, home: 3}
	gotOps, rcpt = decodeIntent(encodeIntent(ops, want), 4)
	if rcpt == nil || *rcpt != *want || len(gotOps) != 2 {
		t.Fatalf("receipt round trip = %+v, %+v", gotOps, rcpt)
	}

	mustCorrupt := func(name string, f func()) {
		defer func() {
			if _, ok := recover().(*pmem.CorruptionError); !ok {
				t.Fatalf("%s did not raise a corruption error", name)
			}
		}()
		f()
	}
	mustCorrupt("home out of range", func() { decodeIntent(encodeIntent(ops, want), 2) })
	mustCorrupt("unknown flags", func() {
		buf := append([]byte(nil), plain...)
		buf[0] = 9
		decodeIntent(buf, 4)
	})
	mustCorrupt("truncated receipt", func() { decodeIntent(encodeIntent(ops, want)[:16], 4) })
	mustCorrupt("short header", func() { decodeIntent(nil, 4) })
}
