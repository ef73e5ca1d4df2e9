package palloc

import "testing"

// rootsOf builds a RootEnumerator over a fixed address set.
func rootsOf(addrs ...uint64) RootEnumerator {
	return func(visit func(uint64)) {
		for _, a := range addrs {
			visit(a)
		}
	}
}

func TestRecoverReclaimsLeakedBlock(t *testing.T) {
	m, _ := format(1 << 14)
	kept := Alloc(m, 10)
	leaked := Alloc(m, 10) // allocated but never published: a mid-crash leak
	large := Alloc(m, 600)
	if err := Reconcile(m, rootsOf(kept, leaked, large)); err != nil {
		t.Fatalf("fully-reachable heap does not reconcile: %v", err)
	}
	if err := Reconcile(m, rootsOf(kept, large)); err == nil {
		t.Fatal("Reconcile missed the leaked block")
	}
	st := Recover(m, rootsOf(kept, large))
	if st.ReclaimedWords != 10 {
		t.Fatalf("ReclaimedWords = %d, want 10", st.ReclaimedWords)
	}
	if st.ReachableWords != 10+640 {
		t.Fatalf("ReachableWords = %d, want 650", st.ReachableWords)
	}
	if got := InUseWords(m); got != 650 {
		t.Fatalf("InUseWords after Recover = %d, want 650", got)
	}
	if err := Reconcile(m, rootsOf(kept, large)); err != nil {
		t.Fatalf("recovered heap does not reconcile: %v", err)
	}
	// The reclaimed slot is allocatable again.
	if a := Alloc(m, 10); a != leaked {
		t.Fatalf("reclaimed block not reused: got %d, want %d", a, leaked)
	}
}

func TestRecoverReclaimsLeakedLargeBlock(t *testing.T) {
	m, _ := format(1 << 14)
	kept := Alloc(m, 10)
	leakedLarge := Alloc(m, 600)
	st := Recover(m, rootsOf(kept))
	if st.ReclaimedWords != 640 {
		t.Fatalf("ReclaimedWords = %d, want 640", st.ReclaimedWords)
	}
	if got := InUseWords(m); got != 10 {
		t.Fatalf("InUseWords = %d, want 10", got)
	}
	if a := Alloc(m, 600); a != leakedLarge {
		t.Fatalf("reclaimed pages not reused: got %d, want %d", a, leakedLarge)
	}
}

// TestRecoverIsIdempotent: recovering a consistent heap changes nothing —
// zero stores — so engines can run it unconditionally on every open.
func TestRecoverIsIdempotent(t *testing.T) {
	m := &countMem{flatMem: newMem(1 << 14)}
	Format(m, 1<<14)
	a := Alloc(m, 10)
	b := Alloc(m, 100)
	c := Alloc(m, 600)
	Free(m, b)
	roots := rootsOf(a, c)
	Recover(m, roots)
	m.stores = 0
	Recover(m, roots)
	if m.stores != 0 {
		t.Fatalf("second Recover issued %d stores, want 0", m.stores)
	}
}

// TestRecoverCompactsEmptySpans: spans drained by Free stay class-owned
// (lazy) until a recovery converts them into coalesced free runs and
// shrinks the virgin frontier past a free tail.
func TestRecoverCompactsEmptySpans(t *testing.T) {
	m, _ := format(1 << 14)
	a := Alloc(m, 4)
	b := Alloc(m, 100) // separate class, separate span
	Free(m, b)
	hw := UsedWords(m)
	Recover(m, rootsOf(a))
	if got := UsedWords(m); got >= hw {
		t.Fatalf("frontier did not shrink past the drained span: %d >= %d", got, hw)
	}
	if err := Reconcile(m, rootsOf(a)); err != nil {
		t.Fatalf("compacted heap does not reconcile: %v", err)
	}
	// The reclaimed pages serve a different class now.
	if got := Alloc(m, 600); got == 0 {
		t.Fatal("large alloc failed after compaction")
	}
}

func TestRecoverRejectsBogusRoots(t *testing.T) {
	m, _ := format(1 << 14)
	a := Alloc(m, 10)
	for _, bad := range []uint64{1, a + 1, MetaWords(m) + (1 << 13)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Recover with bogus root %d did not panic", bad)
				}
			}()
			Recover(m, rootsOf(a, bad))
		}()
	}
}

func TestStatsBreakdown(t *testing.T) {
	m, _ := format(1 << 14)
	a := Alloc(m, 10)
	_ = Alloc(m, 10)
	lg := Alloc(m, 600)
	Free(m, a)
	st := Stats(m)
	if st.InUseWords != InUseWords(m) {
		t.Fatalf("Stats.InUseWords %d != InUseWords %d", st.InUseWords, InUseWords(m))
	}
	var cs *ClassStats
	for i := range st.Classes {
		if st.Classes[i].Size == 10 {
			cs = &st.Classes[i]
		}
	}
	if cs == nil || cs.Spans != 1 || cs.LiveBlocks != 1 {
		t.Fatalf("class-10 stats = %+v, want 1 span / 1 live block", cs)
	}
	if cs.CapBlocks <= cs.LiveBlocks {
		t.Fatal("class-10 span reports no free capacity")
	}
	if st.LargeBlocks != 1 || st.LargePages != 10 {
		t.Fatalf("large stats = %d blocks / %d pages, want 1 / 10", st.LargeBlocks, st.LargePages)
	}
	Free(m, lg)
	if st = Stats(m); st.FreePages != 10 {
		t.Fatalf("FreePages = %d, want 10 after large free", st.FreePages)
	}
}
