package redodb

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/pmem"
)

// detPut is a detectable one-put batch for request (client, seq), reporting
// whether it applied. Any error fails the test.
func detPut(t testing.TB, s *Session, client, seq uint64, key, val []byte) bool {
	t.Helper()
	b := &WriteBatch{}
	b.Put(key, val)
	return mustApply(t, s, b, WriteOptions{Client: client, Seq: seq})
}

// detDelete is detPut's one-delete counterpart.
func detDelete(t testing.TB, s *Session, client, seq uint64, key []byte) bool {
	t.Helper()
	b := &WriteBatch{}
	b.Delete(key)
	return mustApply(t, s, b, WriteOptions{Client: client, Seq: seq})
}

func mustApply(t testing.TB, s *Session, b *WriteBatch, o WriteOptions) bool {
	t.Helper()
	applied, err := s.Apply(b, o)
	if err != nil {
		t.Fatalf("Apply(%+v): %v", o, err)
	}
	return applied
}

func TestDetectablePutDeleteDedup(t *testing.T) {
	db, _ := openDB(t, 1, pmem.Direct, 1<<18)
	s := db.Session(0)
	const client = 1

	if s.WasApplied(client, 1) {
		t.Fatal("WasApplied true before any operation")
	}
	if !detPut(t, s, client, 1, []byte("k"), []byte("v1")) {
		t.Fatal("first detectable put reported dedup")
	}
	if !s.WasApplied(client, 1) {
		t.Fatal("WasApplied false after commit")
	}
	// A retry of the same request is skipped and changes nothing.
	if detPut(t, s, client, 1, []byte("k"), []byte("v1")) {
		t.Fatal("retried detectable put applied twice")
	}
	if v, _ := s.Get([]byte("k")); string(v) != "v1" {
		t.Fatalf("value %q after retry", v)
	}

	if !detPut(t, s, client, 2, []byte("k"), []byte("v2")) {
		t.Fatal("seq 2 reported dedup")
	}
	if !detDelete(t, s, client, 3, []byte("k")) {
		t.Fatal("first detectable delete reported dedup")
	}
	if detDelete(t, s, client, 3, []byte("k")) {
		t.Fatal("retried detectable delete applied twice")
	}
	if s.Has([]byte("k")) {
		t.Fatal("key survived detectable delete")
	}

	if r, mx, a := s.DetectStats(client); r != 3 || mx != 3 || a != 0 {
		t.Fatalf("DetectStats = (%d, %d, %d), want (3, 3, 0)", r, mx, a)
	}
	s.AckApplied(client, 3)
	if !s.WasApplied(client, 2) {
		t.Fatal("WasApplied false for acked seq")
	}
	if r, mx, a := s.DetectStats(client); r != 3 || mx != 3 || a != 3 {
		t.Fatalf("DetectStats after ack = (%d, %d, %d), want (3, 3, 3)", r, mx, a)
	}
}

// TestDetectableSeqReuseRejected: a seq re-used for a different operation
// returns ErrSeqReused, applies nothing, and leaves the session usable.
func TestDetectableSeqReuseRejected(t *testing.T) {
	db, _ := openDB(t, 1, pmem.Direct, 1<<18)
	s := db.Session(0)
	detPut(t, s, 1, 1, []byte("a"), []byte("v"))
	b := &WriteBatch{}
	b.Put([]byte("DIFFERENT"), []byte("v"))
	if applied, err := s.Apply(b, WriteOptions{Client: 1, Seq: 1}); !errors.Is(err, ErrSeqReused) || applied {
		t.Fatalf("seq re-use for a different operation = (%v, %v), want (false, ErrSeqReused)", applied, err)
	}
	if s.Has([]byte("DIFFERENT")) {
		t.Fatal("rejected re-use applied its batch")
	}
	if !detPut(t, s, 1, 2, []byte("b"), []byte("v")) {
		t.Fatal("next seq deduplicated after a rejected re-use")
	}
}

func TestDetectableDistinctClients(t *testing.T) {
	db, _ := openDB(t, 2, pmem.Direct, 1<<18)
	a, b := db.Session(0), db.Session(1)
	// The same seq from different clients is two independent requests.
	if !detPut(t, a, 10, 1, []byte("k10"), []byte("a")) {
		t.Fatal("client 10 deduplicated")
	}
	if !detPut(t, b, 20, 1, []byte("k20"), []byte("b")) {
		t.Fatal("client 20 deduplicated against client 10")
	}
	if a.WasApplied(10, 2) || b.WasApplied(20, 2) {
		t.Fatal("unissued seq reported applied")
	}
}

// TestDetectableCrashExactlyOnce sweeps power failures across a stream of
// detectable puts, then lets the client run its recovery protocol: probe
// WasApplied for every issued request and retry the unapplied ones. The
// database must end complete, with the receipt count proving each request
// was applied exactly once no matter where the crash landed — the request
// and its receipt commit at one atomic point, so the probe can never lie in
// either direction.
func TestDetectableCrashExactlyOnce(t *testing.T) {
	const ops = 12
	const client = 5
	key := func(i uint64) []byte { return []byte(fmt.Sprintf("dk%02d", i)) }
	val := func(i uint64) []byte { return []byte(fmt.Sprintf("dv%02d", i)) }
	for fail := int64(20); ; fail += 91 {
		pool := pmem.New(pmem.Config{Mode: pmem.Strict, RegionWords: 1 << 16, Regions: 2})
		crashed := false
		acked := uint64(0)
		func() {
			defer func() {
				if r := recover(); r != nil {
					if r != pmem.ErrSimulatedPowerFailure {
						panic(r)
					}
					crashed = true
				}
				pool.InjectFailure(-1)
			}()
			s := Open(pool, Options{Threads: 1}).Session(0)
			pool.InjectFailure(fail)
			for i := uint64(1); i <= ops; i++ {
				detPut(t, s, client, i, key(i), val(i))
				if i%5 == 0 {
					s.AckApplied(client, i)
					acked = i
				}
			}
		}()
		if !crashed {
			break
		}
		pool.Crash(pmem.CrashConservative, nil)
		s := Open(pool, Options{Threads: 1}).Session(0)

		// Crash-recovery probe: acked seqs must have survived; an applied
		// probe must be backed by the key actually being present.
		for i := uint64(1); i <= acked; i++ {
			if !s.WasApplied(client, i) {
				t.Fatalf("fail=%d: acked seq %d lost its receipt", fail, i)
			}
		}
		for i := uint64(1); i <= ops; i++ {
			if s.WasApplied(client, i) {
				if v, ok := s.Get(key(i)); !ok || string(v) != string(val(i)) {
					t.Fatalf("fail=%d: seq %d receipted but key %q = %q,%v",
						fail, i, key(i), v, ok)
				}
			}
		}

		// Client retry storm: re-issue everything; dedup must skip exactly
		// the receipted requests.
		for i := uint64(1); i <= ops; i++ {
			pre := s.WasApplied(client, i)
			appliedNow := detPut(t, s, client, i, key(i), val(i))
			if appliedNow == pre {
				// The retry applies iff no receipt existed — anything else
				// is a lost receipt or a double apply.
				t.Fatalf("fail=%d: retry of seq %d applied=%v with prior receipt=%v",
					fail, i, appliedNow, pre)
			}
		}
		for i := uint64(1); i <= ops; i++ {
			if v, ok := s.Get(key(i)); !ok || string(v) != string(val(i)) {
				t.Fatalf("fail=%d: after retries key %q = %q,%v", fail, key(i), v, ok)
			}
			if !s.WasApplied(client, i) {
				t.Fatalf("fail=%d: after retries seq %d unreceipted", fail, i)
			}
		}
		// Exactly-once witness: one receipt per request, never two.
		if r, mx, _ := s.DetectStats(client); r != ops || mx != ops {
			t.Fatalf("fail=%d: receipts=%d maxSeq=%d, want %d each", fail, r, mx, ops)
		}
	}
}
