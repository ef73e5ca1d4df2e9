package redodb

import (
	"testing"

	"repro/internal/pmem"
)

func allocTestSession() *Session {
	pool := pmem.New(pmem.Config{Mode: pmem.Direct, RegionWords: 1 << 16, Regions: 2})
	db := Open(pool, Options{Threads: 1})
	return db.Session(0)
}

// TestHotPathAllocations pins the heap-allocation budget of the session hot
// paths. GetAppend and Has are the headline: on the uncontended optimistic
// path the value travels from persistent words straight into the caller's
// buffer with zero allocations. Get adds exactly its fresh result slice, and
// Put its snapshotted key+value backing array plus the transaction closure —
// both are the price of helper-safe closures, nothing else.
func TestHotPathAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates on the measured paths")
	}
	s := allocTestSession()
	key := []byte("alloc-key")
	val := make([]byte, 1024)
	for i := range val {
		val[i] = byte(i)
	}
	// Warm the engine: the state ring's log-chunk chains and aggregation
	// maps grow on first use and are retained, so they must not be charged
	// to the steady-state budget.
	for i := 0; i < 300; i++ {
		s.Put(key, val)
	}

	dst := make([]byte, 0, 2048)
	if a := testing.AllocsPerRun(200, func() {
		dst, _ = s.GetAppend(dst[:0], key)
	}); a != 0 {
		t.Errorf("GetAppend with capacity: %.1f allocs/op, want 0", a)
	}
	if a := testing.AllocsPerRun(200, func() {
		s.Has(key)
	}); a != 0 {
		t.Errorf("Has: %.1f allocs/op, want 0", a)
	}
	if a := testing.AllocsPerRun(200, func() {
		s.Get(key)
	}); a > 1 {
		t.Errorf("Get: %.1f allocs/op, want <= 1", a)
	}
	if a := testing.AllocsPerRun(200, func() {
		s.Put(key, val)
	}); a > 2 {
		t.Errorf("Put: %.1f allocs/op, want <= 2", a)
	}
}

// TestHotPathAllocationsBuffered pins the same steady-state budgets in
// buffered mode, plus the seal path. Every seal runs on the calling thread,
// so AllocsPerRun — which counts process-global mallocs — sees only the
// measured path.
func TestHotPathAllocationsBuffered(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates on the measured paths")
	}
	pool := pmem.New(pmem.Config{Mode: pmem.Direct, RegionWords: 1 << 16, Regions: 3})
	db := Open(pool, Options{Threads: 1, Buffered: true})
	s := db.Session(0)
	key := []byte("alloc-key")
	val := make([]byte, 1024)
	for i := range val {
		val[i] = byte(i)
	}
	// Warm to steady state: retained engine scratch (log chunks, dirty
	// lists, aggregation maps) and one full persist cycle per replica so
	// the Persist path is also warm.
	for i := 0; i < 300; i++ {
		s.Put(key, val)
		if i%8 == 0 {
			db.Persist()
		}
	}
	db.Persist()

	dst := make([]byte, 0, 2048)
	if a := testing.AllocsPerRun(200, func() {
		dst, _ = s.GetAppend(dst[:0], key)
	}); a != 0 {
		t.Errorf("GetAppend with capacity: %.1f allocs/op, want 0", a)
	}
	if a := testing.AllocsPerRun(200, func() {
		s.Has(key)
	}); a != 0 {
		t.Errorf("Has: %.1f allocs/op, want 0", a)
	}
	if a := testing.AllocsPerRun(200, func() {
		s.Get(key)
	}); a > 1 {
		t.Errorf("Get: %.1f allocs/op, want <= 1", a)
	}
	if a := testing.AllocsPerRun(200, func() {
		s.Put(key, val)
	}); a > 2 {
		t.Errorf("Put: %.1f allocs/op, want <= 2", a)
	}
	// The group-commit hot loop: commit + seal. The seal itself (dirty
	// dedup, flush, fence, header publish) must not allocate beyond Put's
	// own budget.
	if a := testing.AllocsPerRun(200, func() {
		s.Put(key, val)
		db.Persist()
	}); a > 2 {
		t.Errorf("Put+Persist: %.1f allocs/op, want <= 2 (Persist must be allocation-free)", a)
	}
	// Sync on an already-durable epoch is the fast path out of every
	// Sync-option write: a pair of atomic loads, no allocations.
	if a := testing.AllocsPerRun(200, func() {
		s.Sync()
	}); a != 0 {
		t.Errorf("Sync (durable): %.1f allocs/op, want 0", a)
	}
}

func BenchmarkSessionPut(b *testing.B) {
	s := allocTestSession()
	key := []byte("alloc-key")
	val := make([]byte, 1024)
	s.Put(key, val)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Put(key, val)
	}
}

func BenchmarkSessionGetAppend(b *testing.B) {
	s := allocTestSession()
	key := []byte("alloc-key")
	s.Put(key, make([]byte, 1024))
	dst := make([]byte, 0, 2048)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst, _ = s.GetAppend(dst[:0], key)
	}
}
