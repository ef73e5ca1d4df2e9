package redodb

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/core/redo"
	"repro/internal/palloc"
	"repro/internal/pmem"
)

func openDB(t testing.TB, threads int, mode pmem.Mode, words uint64) (*DB, *pmem.Pool) {
	t.Helper()
	pool := pmem.New(pmem.Config{Mode: mode, RegionWords: words, Regions: threads + 1})
	return Open(pool, Options{Threads: threads}), pool
}

func TestPutGetDelete(t *testing.T) {
	db, _ := openDB(t, 1, pmem.Direct, 1<<18)
	s := db.Session(0)
	if _, ok := s.Get([]byte("missing")); ok {
		t.Fatal("Get on empty DB found a key")
	}
	s.Put([]byte("alpha"), []byte("one"))
	s.Put([]byte("beta"), []byte("two"))
	if v, ok := s.Get([]byte("alpha")); !ok || string(v) != "one" {
		t.Fatalf("Get(alpha) = %q,%v", v, ok)
	}
	if v, ok := s.Get([]byte("beta")); !ok || string(v) != "two" {
		t.Fatalf("Get(beta) = %q,%v", v, ok)
	}
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2", s.Len())
	}
	// Overwrite.
	s.Put([]byte("alpha"), []byte("uno"))
	if v, _ := s.Get([]byte("alpha")); string(v) != "uno" {
		t.Fatalf("after overwrite Get(alpha) = %q", v)
	}
	if s.Len() != 2 {
		t.Fatalf("Len after overwrite = %d, want 2", s.Len())
	}
	if !s.Delete([]byte("alpha")) {
		t.Fatal("Delete(alpha) = false")
	}
	if s.Delete([]byte("alpha")) {
		t.Fatal("double Delete(alpha) = true")
	}
	if _, ok := s.Get([]byte("alpha")); ok {
		t.Fatal("Get after Delete found the key")
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1", s.Len())
	}
}

func TestEmptyValueAndBinaryKeys(t *testing.T) {
	db, _ := openDB(t, 1, pmem.Direct, 1<<18)
	s := db.Session(0)
	s.Put([]byte{0, 1, 2, 255}, []byte{})
	v, ok := s.Get([]byte{0, 1, 2, 255})
	if !ok || len(v) != 0 {
		t.Fatalf("binary key with empty value: %v,%v", v, ok)
	}
	if !s.Has([]byte{0, 1, 2, 255}) {
		t.Fatal("Has = false")
	}
}

func TestAgainstModel(t *testing.T) {
	db, _ := openDB(t, 1, pmem.Direct, 1<<21)
	s := db.Session(0)
	model := make(map[string]string)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 3000; i++ {
		k := fmt.Sprintf("key-%04d", rng.Intn(400))
		switch rng.Intn(4) {
		case 0, 1:
			v := fmt.Sprintf("val-%d", i)
			s.Put([]byte(k), []byte(v))
			model[k] = v
		case 2:
			got := s.Delete([]byte(k))
			_, want := model[k]
			if got != want {
				t.Fatalf("op %d: Delete(%s) = %v, want %v", i, k, got, want)
			}
			delete(model, k)
		case 3:
			got, ok := s.Get([]byte(k))
			want, wok := model[k]
			if ok != wok || (ok && string(got) != want) {
				t.Fatalf("op %d: Get(%s) = %q,%v, want %q,%v", i, k, got, ok, want, wok)
			}
		}
	}
	if int(s.Len()) != len(model) {
		t.Fatalf("Len = %d, model %d", s.Len(), len(model))
	}
}

func TestResizeKeepsEverything(t *testing.T) {
	db, _ := openDB(t, 1, pmem.Direct, 1<<22)
	s := db.Session(0)
	const n = 5000 // far beyond minBuckets, forcing several grows
	for i := 0; i < n; i++ {
		s.Put([]byte(fmt.Sprintf("k%06d", i)), []byte(fmt.Sprintf("v%d", i)))
	}
	for i := 0; i < n; i++ {
		v, ok := s.Get([]byte(fmt.Sprintf("k%06d", i)))
		if !ok || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("key %d lost across resize: %q,%v", i, v, ok)
		}
	}
}

func TestWriteBatchIsAtomic(t *testing.T) {
	const threads = 4
	db, _ := openDB(t, threads, pmem.Direct, 1<<20)
	init := db.Session(0)
	init.Put([]byte("acct-a"), []byte{100})
	init.Put([]byte("acct-b"), []byte{0})
	var wg sync.WaitGroup
	for tid := 0; tid < threads; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			s := db.Session(tid)
			for i := 0; i < 100; i++ {
				// Move one unit between accounts atomically; the
				// batch gets both puts or neither.
				b := &WriteBatch{}
				b.Put([]byte("acct-a"), []byte{byte(i)})
				b.Put([]byte("acct-b"), []byte{100 - byte(i)})
				s.Write(b)
			}
		}(tid)
	}
	wg.Wait()
	s := db.Session(0)
	a, _ := s.Get([]byte("acct-a"))
	b, _ := s.Get([]byte("acct-b"))
	if int(a[0])+int(b[0]) != 100 {
		t.Fatalf("invariant broken: a=%d b=%d", a[0], b[0])
	}
}

func TestWriteBatchDelete(t *testing.T) {
	db, _ := openDB(t, 1, pmem.Direct, 1<<18)
	s := db.Session(0)
	s.Put([]byte("x"), []byte("1"))
	b := &WriteBatch{}
	b.Delete([]byte("x"))
	b.Put([]byte("y"), []byte("2"))
	if b.Len() != 2 {
		t.Fatalf("batch Len = %d", b.Len())
	}
	s.Write(b)
	if _, ok := s.Get([]byte("x")); ok {
		t.Fatal("x survived batch delete")
	}
	if v, ok := s.Get([]byte("y")); !ok || string(v) != "2" {
		t.Fatal("y missing after batch")
	}
	b.Clear()
	if b.Len() != 0 {
		t.Fatal("Clear did not empty the batch")
	}
}

func TestConcurrentSessions(t *testing.T) {
	const threads, per = 6, 300
	db, _ := openDB(t, threads, pmem.Direct, 1<<22)
	var wg sync.WaitGroup
	for tid := 0; tid < threads; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			s := db.Session(tid)
			for i := 0; i < per; i++ {
				k := []byte(fmt.Sprintf("t%d-k%d", tid, i))
				s.Put(k, []byte(fmt.Sprintf("v%d", i)))
				if v, ok := s.Get(k); !ok || string(v) != fmt.Sprintf("v%d", i) {
					t.Errorf("thread %d: read-own-write failed for %s", tid, k)
					return
				}
			}
		}(tid)
	}
	wg.Wait()
	if got := db.Session(0).Len(); got != threads*per {
		t.Fatalf("Len = %d, want %d", got, threads*per)
	}
}

func TestConcurrentGetDuringWrites(t *testing.T) {
	// Readers hammer Get while writers overwrite: every returned value
	// must be one that some writer wrote (never torn).
	const writers, readers = 2, 4
	db, _ := openDB(t, writers+readers, pmem.Direct, 1<<20)
	key := []byte("hot")
	db.Session(0).Put(key, []byte("w0-0"))
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			s := db.Session(tid)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
					s.Put(key, []byte(fmt.Sprintf("w%d-%d", tid, i)))
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			s := db.Session(tid)
			for i := 0; i < 300; i++ {
				v, ok := s.Get(key)
				if !ok {
					t.Errorf("hot key disappeared")
					return
				}
				if len(v) < 4 || v[0] != 'w' {
					t.Errorf("torn value %q", v)
					return
				}
			}
		}(writers + r)
	}
	// Readers finish, then writers stop.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for r := 0; r < readers; r++ {
	}
	close(stop)
	<-done
}

func TestIterator(t *testing.T) {
	db, _ := openDB(t, 1, pmem.Direct, 1<<20)
	s := db.Session(0)
	keys := []string{"delta", "alpha", "charlie", "echo", "bravo"}
	for i, k := range keys {
		s.Put([]byte(k), []byte(fmt.Sprintf("v%d", i)))
	}
	it := s.NewIterator()
	if it.Len() != len(keys) {
		t.Fatalf("iterator Len = %d, want %d", it.Len(), len(keys))
	}
	var got []string
	for it.Next() {
		got = append(got, string(it.Key()))
	}
	want := []string{"alpha", "bravo", "charlie", "delta", "echo"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("iteration order %v, want %v", got, want)
		}
	}
	if it.Valid() {
		t.Fatal("iterator valid after exhaustion")
	}
	// Seek.
	if !it.Seek([]byte("c")) {
		t.Fatal("Seek(c) found nothing")
	}
	if string(it.Key()) != "charlie" {
		t.Fatalf("Seek(c) at %q, want charlie", it.Key())
	}
	if it.Seek([]byte("zzz")) {
		t.Fatal("Seek(zzz) found a key")
	}
}

func TestIteratorIsSnapshot(t *testing.T) {
	db, _ := openDB(t, 1, pmem.Direct, 1<<20)
	s := db.Session(0)
	s.Put([]byte("a"), []byte("1"))
	it := s.NewIterator()
	s.Put([]byte("b"), []byte("2"))
	s.Delete([]byte("a"))
	if it.Len() != 1 {
		t.Fatalf("snapshot sees %d keys, want 1", it.Len())
	}
	it.Next()
	if string(it.Key()) != "a" || string(it.Value()) != "1" {
		t.Fatalf("snapshot pair = %q:%q", it.Key(), it.Value())
	}
}

func TestNVMUsageGrowsAndShrinks(t *testing.T) {
	db, _ := openDB(t, 1, pmem.Direct, 1<<20)
	s := db.Session(0)
	base := db.NVMUsedBytes()
	for i := 0; i < 500; i++ {
		s.Put([]byte(fmt.Sprintf("k%d", i)), bytes.Repeat([]byte{7}, 64))
	}
	grown := db.NVMUsedBytes()
	if grown <= base {
		t.Fatalf("NVM usage did not grow: %d -> %d", base, grown)
	}
	for i := 0; i < 500; i++ {
		s.Delete([]byte(fmt.Sprintf("k%d", i)))
	}
	if got := db.NVMUsedBytes(); got >= grown {
		t.Fatalf("NVM usage did not shrink after deletes: %d -> %d", grown, got)
	}
}

func TestCrashRecoveryKeepsCommittedPairs(t *testing.T) {
	pool := pmem.New(pmem.Config{Mode: pmem.Strict, RegionWords: 1 << 18, Regions: 2})
	db := Open(pool, Options{Threads: 1})
	s := db.Session(0)
	for i := 0; i < 50; i++ {
		s.Put([]byte(fmt.Sprintf("k%03d", i)), []byte(fmt.Sprintf("v%d", i)))
	}
	pool.Crash(pmem.CrashConservative, nil)
	db2 := Open(pool, Options{Threads: 1})
	s2 := db2.Session(0)
	if s2.Len() != 50 {
		t.Fatalf("recovered %d keys, want 50", s2.Len())
	}
	for i := 0; i < 50; i++ {
		v, ok := s2.Get([]byte(fmt.Sprintf("k%03d", i)))
		if !ok || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("key %d lost or corrupt after crash: %q,%v", i, v, ok)
		}
	}
	// Null recovery: immediately writable.
	s2.Put([]byte("post"), []byte("crash"))
	if v, ok := s2.Get([]byte("post")); !ok || string(v) != "crash" {
		t.Fatal("post-recovery Put/Get broken")
	}
}

func TestSystematicCrashPoints(t *testing.T) {
	const n = 15
	for fail := int64(50); ; fail += 211 {
		pool := pmem.New(pmem.Config{Mode: pmem.Strict, RegionWords: 1 << 18, Regions: 2})
		completed, crashed := 0, false
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
			db := Open(pool, Options{Threads: 1})
			s := db.Session(0)
			pool.InjectFailure(fail)
			for i := 0; i < n; i++ {
				s.Put([]byte(fmt.Sprintf("k%02d", i)), []byte{byte(i)})
				completed++
			}
		}()
		if !crashed {
			break
		}
		pool.Crash(pmem.CrashConservative, nil)
		db := Open(pool, Options{Threads: 1})
		s := db.Session(0)
		for i := 0; i < completed; i++ {
			v, ok := s.Get([]byte(fmt.Sprintf("k%02d", i)))
			if !ok || v[0] != byte(i) {
				t.Fatalf("fail=%d: completed Put %d lost", fail, i)
			}
		}
	}
}

func TestSessionValidation(t *testing.T) {
	db, _ := openDB(t, 2, pmem.Direct, 1<<16)
	defer func() {
		if recover() == nil {
			t.Error("out-of-range session id did not panic")
		}
	}()
	db.Session(2)
}

func TestVariantOverride(t *testing.T) {
	pool := pmem.New(pmem.Config{RegionWords: 1 << 16, Regions: 2})
	db := Open(pool, Options{Threads: 1, Variant: redo.Timed})
	if got := db.Engine().Name(); got != "RedoTimed-PTM" {
		t.Fatalf("engine = %s, want RedoTimed-PTM", got)
	}
}

// TestForeignAllocatorMagicIsCorruption reopens an image whose allocator
// magic word is not the arena format — here the retired power-of-two
// allocator's "palloc01" — and expects the typed corruption error from
// validation, not a heap parsed under the wrong layout.
func TestForeignAllocatorMagicIsCorruption(t *testing.T) {
	const magicPalloc01 = 0x70616c6c6f633031 // "palloc01"
	pool := pmem.New(pmem.Config{Mode: pmem.Strict, RegionWords: 1 << 14, Regions: 2})
	Open(pool, Options{Threads: 1}).Session(0).Put([]byte("k"), []byte("v"))
	for i := 0; i < pool.Regions(); i++ {
		r := pool.Region(i)
		r.Store(palloc.Base, magicPalloc01)
		r.FlushRange(palloc.Base, 1)
		r.PFence()
	}
	pool.Crash(pmem.CrashConservative, nil)
	defer func() {
		ce, ok := pmem.AsCorruption(recover())
		if !ok {
			t.Fatalf("reopen did not report a typed corruption error")
		}
		if ce.Component != "redodb" {
			t.Fatalf("corruption reported by %q, want redodb", ce.Component)
		}
	}()
	Open(pool, Options{Threads: 1})
}
