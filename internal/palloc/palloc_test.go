package palloc

import (
	"testing"
	"testing/quick"
)

// flatMem is a trivial in-memory word array implementing Mem.
type flatMem []uint64

func (m flatMem) Load(addr uint64) uint64   { return m[addr] }
func (m flatMem) Store(addr, val uint64)    { m[addr] = val }
func newMem(words uint64) flatMem           { return make(flatMem, words) }
func format(words uint64) (flatMem, uint64) { m := newMem(words); Format(m, words); return m, words }

// countMem counts logged stores: the PTM interposition logs and flushes
// every one, so this is the allocator's persistence-instruction cost.
type countMem struct {
	flatMem
	stores int
}

func (m *countMem) Store(addr, val uint64) { m.stores++; m.flatMem.Store(addr, val) }

func TestFormatAndIsFormatted(t *testing.T) {
	m := newMem(4096)
	if IsFormatted(m) {
		t.Fatal("fresh memory reports formatted")
	}
	Format(m, 4096)
	if !IsFormatted(m) {
		t.Fatal("formatted heap not detected")
	}
	if got := HeapEndWords(m); got != 4096 {
		t.Fatalf("HeapEndWords = %d, want 4096", got)
	}
	if got := InUseWords(m); got != 0 {
		t.Fatalf("InUseWords on fresh heap = %d, want 0", got)
	}
	if mw := MetaWords(m); mw <= dirStart || mw >= 4096 {
		t.Fatalf("MetaWords = %d, want within (%d, 4096)", mw, dirStart)
	}
	if got := UsedWords(m); got != MetaWords(m) {
		t.Fatalf("UsedWords on fresh heap = %d, want MetaWords %d", got, MetaWords(m))
	}
}

func TestFormatPanicsOnTinyHeap(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Format with tiny heap did not panic")
		}
	}()
	Format(newMem(dirStart+8), dirStart+8)
}

func TestAllocReturnsWritablePayload(t *testing.T) {
	m, _ := format(4096)
	a := Alloc(m, 10)
	if a == 0 {
		t.Fatal("Alloc failed on fresh heap")
	}
	if a < MetaWords(m) {
		t.Fatalf("payload address %d inside metadata", a)
	}
	for i := uint64(0); i < 10; i++ {
		m.Store(a+i, i+1)
	}
	for i := uint64(0); i < 10; i++ {
		if m.Load(a+i) != i+1 {
			t.Fatalf("payload word %d corrupted", i)
		}
	}
	if got := UsableWords(m, a); got < 10 {
		t.Fatalf("UsableWords = %d, want >= 10", got)
	}
}

// TestFineGrainedClasses pins the headline space win over the paper's
// power-of-two rounding: requests land in 1.25×-spaced classes with no
// per-block header, so a 10-word request costs 10 words (power-of-two with a
// header: 16) and a 1 KiB value's 129 words cost 160 (power-of-two: 256).
func TestFineGrainedClasses(t *testing.T) {
	cases := []struct{ want, footprint uint64 }{
		{1, 2}, {2, 2}, {3, 3}, {8, 8}, {9, 10}, {10, 10},
		{17, 20}, {65, 80}, {129, 160}, {257, 320}, {512, 512},
	}
	for _, c := range cases {
		m, _ := format(1 << 16)
		if a := Alloc(m, c.want); a == 0 {
			t.Fatalf("Alloc(%d) failed", c.want)
		}
		if got := InUseWords(m); got != c.footprint {
			t.Errorf("Alloc(%d): InUseWords = %d, want %d", c.want, got, c.footprint)
		}
	}
}

func TestClassSpacing(t *testing.T) {
	for c := 1; c < numClasses2; c++ {
		prev, cur := classSizes[c-1], classSizes[c]
		if cur > prev*5/4 && cur-prev > 2 {
			t.Errorf("class spacing %d → %d exceeds 1.25×", prev, cur)
		}
		if classBlocks[c] > 64 || classPages[c]*pageWords != classSizes[c]*classBlocks[c] {
			t.Errorf("class %d (%d words): bad span geometry (%d blocks, %d pages)",
				c, cur, classBlocks[c], classPages[c])
		}
	}
}

func TestDisjointAllocations(t *testing.T) {
	m, _ := format(1 << 16)
	const n = 100
	addrs := make([]uint64, n)
	for i := range addrs {
		addrs[i] = Alloc(m, 5)
		if addrs[i] == 0 {
			t.Fatalf("Alloc %d failed", i)
		}
		for w := uint64(0); w < 5; w++ {
			m.Store(addrs[i]+w, uint64(i)<<32|w)
		}
	}
	for i, a := range addrs {
		for w := uint64(0); w < 5; w++ {
			if got := m.Load(a + w); got != uint64(i)<<32|w {
				t.Fatalf("block %d word %d overwritten: %#x", i, w, got)
			}
		}
	}
}

func TestFreeAndReuse(t *testing.T) {
	m, _ := format(4096)
	a := Alloc(m, 10)
	before := InUseWords(m)
	Free(m, a)
	if got := InUseWords(m); got != before-10 {
		t.Fatalf("InUseWords after Free = %d, want %d", got, before-10)
	}
	b := Alloc(m, 10)
	if b != a {
		t.Fatalf("freed block not reused: got %d, want %d", b, a)
	}
}

func TestClassReuseSeparation(t *testing.T) {
	m, _ := format(1 << 14)
	small := Alloc(m, 1)
	large := Alloc(m, 20)
	Free(m, small)
	Free(m, large)
	if got := Alloc(m, 20); got != large {
		t.Fatalf("20-word alloc returned %d, want reused %d", got, large)
	}
	if got := Alloc(m, 1); got != small {
		t.Fatalf("1-word alloc returned %d, want reused %d", got, small)
	}
}

// TestArenaSeparation pins the per-shard arena property: equal-sized
// requests from different arenas come from disjoint spans, and a block
// freed in one arena is reused by that arena, not its neighbor.
func TestArenaSeparation(t *testing.T) {
	m, _ := format(1 << 14)
	a0 := AllocArena(m, 0, 4)
	a1 := AllocArena(m, 1, 4)
	if a0 == 0 || a1 == 0 {
		t.Fatal("arena allocs failed")
	}
	if p0, p1 := (a0-MetaWords(m))/pageWords, (a1-MetaWords(m))/pageWords; p0 == p1 {
		t.Fatalf("arenas 0 and 1 share a span (page %d)", p0)
	}
	Free(m, a1)
	if got := AllocArena(m, 0, 4); got == a1 {
		t.Fatal("arena 0 reused arena 1's freed block")
	}
	if got := AllocArena(m, 1, 4); got != a1 {
		t.Fatalf("arena 1 did not reuse its freed block: got %d, want %d", got, a1)
	}
}

// TestLargeAlloc covers the dedicated-pages path past the largest class.
func TestLargeAlloc(t *testing.T) {
	m, _ := format(1 << 14)
	a := Alloc(m, 600) // 10 pages
	if a == 0 {
		t.Fatal("large alloc failed")
	}
	if got := InUseWords(m); got != 640 {
		t.Fatalf("InUseWords = %d, want 640 (10 pages)", got)
	}
	if got := UsableWords(m, a); got != 640 {
		t.Fatalf("UsableWords = %d, want 640", got)
	}
	for i := uint64(0); i < 600; i++ {
		m.Store(a+i, i)
	}
	Free(m, a)
	if got := InUseWords(m); got != 0 {
		t.Fatalf("InUseWords after large free = %d, want 0", got)
	}
	if b := Alloc(m, 600); b != a {
		t.Fatalf("freed pages not reused: got %d, want %d", b, a)
	}
}

func TestAllocZeroWords(t *testing.T) {
	m, _ := format(4096)
	a := Alloc(m, 0)
	if a == 0 {
		t.Fatal("Alloc(0) failed")
	}
	if got := UsableWords(m, a); got < 1 {
		t.Fatalf("Alloc(0) usable words = %d, want >= 1", got)
	}
}

func TestOOMReturnsZero(t *testing.T) {
	m, _ := format(dirStart + 80) // one page of heap
	a := Alloc(m, 30)
	if a == 0 {
		t.Fatal("first alloc should fit")
	}
	if b := Alloc(m, 40); b != 0 {
		t.Fatalf("alloc past heap end returned %d, want 0", b)
	}
	Free(m, a)
	if b := Alloc(m, 30); b != a {
		t.Fatalf("alloc after freeing the heap = %d, want reused %d", b, a)
	}
}

func TestHugeAllocReturnsZero(t *testing.T) {
	m, _ := format(4096)
	for _, words := range []uint64{1 << 50, ^uint64(0) - 3, ^uint64(0)} {
		if a := Alloc(m, words); a != 0 {
			t.Fatalf("huge alloc (%d words) returned %d, want 0", words, a)
		}
	}
	if got := InUseWords(m); got != 0 {
		t.Fatalf("failed huge allocs leaked %d words", got)
	}
}

func TestFreeInvalidPanics(t *testing.T) {
	m, _ := format(4096)
	a := Alloc(m, 10)
	for _, addr := range []uint64{0, 1, Base, MetaWords(m) - 1, a + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Free(%d) did not panic", addr)
				}
			}()
			Free(m, addr)
		}()
	}
}

func TestDoubleFreePanics(t *testing.T) {
	m, _ := format(4096)
	a := Alloc(m, 10)
	Free(m, a)
	defer func() {
		if recover() == nil {
			t.Error("double Free did not panic")
		}
	}()
	Free(m, a)
}

// TestAllocStoreBudget asserts the acceptance criterion on the allocation
// path's persistence cost: across fresh fills, full drains and steady-state
// churn, logged stores per Alloc stay ≤ 2 (the paper's power-of-two free
// list issued 4–6), and pure reuse is exactly one store per Alloc and one
// per Free.
func TestAllocStoreBudget(t *testing.T) {
	m := &countMem{flatMem: newMem(1 << 16)}
	Format(m, 1<<16)
	const n = 1000
	addrs := make([]uint64, n)
	m.stores = 0
	for i := range addrs {
		if addrs[i] = Alloc(m, 4); addrs[i] == 0 {
			t.Fatalf("alloc %d failed", i)
		}
	}
	if m.stores > 2*n {
		t.Errorf("fresh fill: %d stores for %d allocs, budget 2/alloc", m.stores, n)
	}
	m.stores = 0
	for _, a := range addrs {
		Free(m, a)
	}
	if m.stores > 2*n {
		t.Errorf("drain: %d stores for %d frees, budget 2/free", m.stores, n)
	}
	// Steady-state churn inside a warm span: exactly one store each way.
	if a := Alloc(m, 4); a != 0 {
		for i := 0; i < 10; i++ {
			m.stores = 0
			b := Alloc(m, 4)
			if m.stores != 1 {
				t.Fatalf("steady-state Alloc took %d stores, want 1", m.stores)
			}
			m.stores = 0
			Free(m, b)
			if m.stores != 1 {
				t.Fatalf("steady-state Free took %d stores, want 1", m.stores)
			}
		}
		Free(m, a)
	}
}

func TestUsedWordsHighWater(t *testing.T) {
	m, _ := format(1 << 14)
	start := UsedWords(m)
	a := Alloc(m, 100)
	if UsedWords(m) <= start {
		t.Fatal("UsedWords did not advance with the frontier")
	}
	hw := UsedWords(m)
	if a+100 > hw {
		t.Fatalf("allocated block [%d,%d) beyond UsedWords %d", a, a+100, hw)
	}
	Free(m, a)
	if UsedWords(m) != hw {
		t.Fatal("UsedWords is a high-water mark; Free must not lower it")
	}
}

// Property: after any sequence of allocs and frees, live blocks never
// overlap and InUseWords equals the sum of live block footprints.
func TestQuickAllocFreeInvariants(t *testing.T) {
	f := func(ops []uint16) bool {
		m := newMem(1 << 16)
		Format(m, 1<<16)
		type blk struct{ addr, size uint64 }
		var live []blk
		for _, op := range ops {
			if op%3 != 0 && len(live) > 0 { // free
				i := int(op) % len(live)
				Free(m, live[i].addr)
				live = append(live[:i], live[i+1:]...)
				continue
			}
			want := uint64(op%600) + 1
			arena := int(op>>8) % NumArenas
			a := AllocArena(m, arena, want)
			if a == 0 {
				continue
			}
			size := UsableWords(m, a)
			if size < want {
				return false
			}
			live = append(live, blk{addr: a, size: size})
		}
		var sum uint64
		for _, b := range live {
			sum += b.size
		}
		if InUseWords(m) != sum {
			return false
		}
		for i := range live {
			for j := i + 1; j < len(live); j++ {
				a, b := live[i], live[j]
				if a.addr < b.addr+b.size && b.addr < a.addr+a.size {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkAllocFree(b *testing.B) {
	m, _ := format(1 << 20)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a := Alloc(m, 8)
		Free(m, a)
	}
}
