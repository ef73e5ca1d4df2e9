package redo

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/pmem"
	"repro/internal/ptm"
	"repro/internal/seqds"
)

func newEngine(t testing.TB, threads int, v Variant, mode pmem.Mode) (*Redo, *pmem.Pool) {
	t.Helper()
	pool := pmem.New(pmem.Config{
		Mode:        mode,
		RegionWords: 1 << 16,
		Regions:     threads + 1,
	})
	if threads == 1 {
		pool = pmem.New(pmem.Config{Mode: mode, RegionWords: 1 << 16, Regions: 2})
	}
	return New(pool, Config{Threads: threads, Variant: v}), pool
}

func variants() []Variant { return []Variant{Base, Timed, Opt} }

func TestNameAndProperties(t *testing.T) {
	want := map[Variant]string{Base: "Redo-PTM", Timed: "RedoTimed-PTM", Opt: "RedoOpt-PTM"}
	for _, v := range variants() {
		e, _ := newEngine(t, 2, v, pmem.Direct)
		if e.Name() != want[v] {
			t.Errorf("Name() = %q, want %q", e.Name(), want[v])
		}
		p := e.Properties()
		if p.Progress != ptm.WaitFree || p.Log != ptm.VolatilePhysical || p.Replicas != "N+1" {
			t.Errorf("%s: Properties() = %+v", e.Name(), p)
		}
	}
}

func TestNewValidation(t *testing.T) {
	pool := pmem.New(pmem.Config{RegionWords: 1 << 12, Regions: 2})
	for _, cfg := range []Config{
		{Threads: 0},
		{Threads: 300},
		{Threads: 1, RingSize: 2},
		{Threads: 1, RingSize: 5000},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%+v) did not panic", cfg)
				}
			}()
			New(pool, cfg)
		}()
	}
}

func TestCounterSingleThread(t *testing.T) {
	for _, v := range variants() {
		t.Run(v.String(), func(t *testing.T) {
			e, _ := newEngine(t, 1, v, pmem.Direct)
			addr := ptm.RootAddr(0)
			for i := 0; i < 200; i++ {
				e.Update(0, func(m ptm.Mem) uint64 {
					val := m.Load(addr) + 1
					m.Store(addr, val)
					return val
				})
			}
			if got := e.Read(0, func(m ptm.Mem) uint64 { return m.Load(addr) }); got != 200 {
				t.Fatalf("counter = %d, want 200", got)
			}
		})
	}
}

func TestRingWrapExercisesStateReuse(t *testing.T) {
	// More updates than RingSize forces every State to be reused many
	// times; correctness must be unaffected.
	pool := pmem.New(pmem.Config{RegionWords: 1 << 14, Regions: 2})
	e := New(pool, Config{Threads: 1, RingSize: 8, Variant: Base})
	addr := ptm.RootAddr(0)
	for i := 0; i < 500; i++ {
		e.Update(0, func(m ptm.Mem) uint64 {
			m.Store(addr, m.Load(addr)+1)
			return 0
		})
	}
	if got := e.Read(0, func(m ptm.Mem) uint64 { return m.Load(addr) }); got != 500 {
		t.Fatalf("counter = %d, want 500", got)
	}
}

func TestSetAgainstModel(t *testing.T) {
	for _, v := range variants() {
		t.Run(v.String(), func(t *testing.T) {
			e, _ := newEngine(t, 1, v, pmem.Direct)
			s := seqds.HashSet{RootSlot: 0}
			e.Update(0, func(m ptm.Mem) uint64 { s.Init(m); return 0 })
			model := make(map[uint64]bool)
			rng := rand.New(rand.NewSource(9))
			for i := 0; i < 1000; i++ {
				k := uint64(rng.Intn(200))
				switch rng.Intn(3) {
				case 0:
					got := e.Update(0, func(m ptm.Mem) uint64 {
						if s.Add(m, k) {
							return 1
						}
						return 0
					})
					if (got == 1) == model[k] {
						t.Fatalf("Add(%d) = %d, model %v", k, got, model[k])
					}
					model[k] = true
				case 1:
					got := e.Update(0, func(m ptm.Mem) uint64 {
						if s.Remove(m, k) {
							return 1
						}
						return 0
					})
					if (got == 1) != model[k] {
						t.Fatalf("Remove(%d) = %d, model %v", k, got, model[k])
					}
					delete(model, k)
				default:
					got := e.Read(0, func(m ptm.Mem) uint64 {
						if s.Contains(m, k) {
							return 1
						}
						return 0
					})
					if (got == 1) != model[k] {
						t.Fatalf("Contains(%d) = %d, model %v", k, got, model[k])
					}
				}
			}
		})
	}
}

func TestConcurrentCounter(t *testing.T) {
	for _, v := range variants() {
		t.Run(v.String(), func(t *testing.T) {
			const threads, perThread = 6, 250
			e, _ := newEngine(t, threads, v, pmem.Direct)
			addr := ptm.RootAddr(0)
			var wg sync.WaitGroup
			for tid := 0; tid < threads; tid++ {
				wg.Add(1)
				go func(tid int) {
					defer wg.Done()
					for i := 0; i < perThread; i++ {
						e.Update(tid, func(m ptm.Mem) uint64 {
							val := m.Load(addr) + 1
							m.Store(addr, val)
							return val
						})
					}
				}(tid)
			}
			wg.Wait()
			got := e.Read(0, func(m ptm.Mem) uint64 { return m.Load(addr) })
			if got != threads*perThread {
				t.Fatalf("counter = %d, want %d (lost updates)", got, threads*perThread)
			}
		})
	}
}

func TestResultsAreExactlyOnce(t *testing.T) {
	// The combining consensus may execute a thread's operation on a
	// helper; the returned post-increment values must still be a
	// permutation of 1..total (each tx executed exactly once).
	for _, v := range variants() {
		t.Run(v.String(), func(t *testing.T) {
			const threads, perThread = 4, 200
			e, _ := newEngine(t, threads, v, pmem.Direct)
			addr := ptm.RootAddr(0)
			results := make([][]uint64, threads)
			var wg sync.WaitGroup
			for tid := 0; tid < threads; tid++ {
				wg.Add(1)
				go func(tid int) {
					defer wg.Done()
					for i := 0; i < perThread; i++ {
						r := e.Update(tid, func(m ptm.Mem) uint64 {
							val := m.Load(addr) + 1
							m.Store(addr, val)
							return val
						})
						results[tid] = append(results[tid], r)
					}
				}(tid)
			}
			wg.Wait()
			seen := make(map[uint64]bool)
			for tid := range results {
				last := uint64(0)
				for _, r := range results[tid] {
					if seen[r] {
						t.Fatalf("result %d returned twice", r)
					}
					seen[r] = true
					if r <= last {
						t.Fatalf("thread %d results not monotonic", tid)
					}
					last = r
				}
			}
			if len(seen) != threads*perThread {
				t.Fatalf("%d distinct results, want %d", len(seen), threads*perThread)
			}
		})
	}
}

func TestReadersSeeConsistentState(t *testing.T) {
	const writers, readers, perWriter = 3, 3, 300
	e, _ := newEngine(t, writers+readers, Opt, pmem.Direct)
	a, b := ptm.RootAddr(0), ptm.RootAddr(1)
	var wg sync.WaitGroup
	var torn sync.Once
	tornMsg := ""
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				e.Update(tid, func(m ptm.Mem) uint64 {
					val := m.Load(a) + 1
					m.Store(a, val)
					m.Store(b, val)
					return val
				})
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if e.Read(tid, func(m ptm.Mem) uint64 {
					if m.Load(a) != m.Load(b) {
						return 1
					}
					return 0
				}) == 1 {
					torn.Do(func() { tornMsg = "reader observed torn transaction" })
					return
				}
			}
		}(writers + r)
	}
	wg.Wait()
	if tornMsg != "" {
		t.Fatal(tornMsg)
	}
}

func TestTwoFencesPerUpdate(t *testing.T) {
	for _, v := range variants() {
		t.Run(v.String(), func(t *testing.T) {
			e, pool := newEngine(t, 1, v, pmem.Direct)
			addr := ptm.RootAddr(0)
			e.Update(0, func(m ptm.Mem) uint64 { m.Store(addr, 1); return 0 })
			before := pool.Stats()
			const n = 50
			for i := 0; i < n; i++ {
				e.Update(0, func(m ptm.Mem) uint64 {
					m.Store(addr, m.Load(addr)+1)
					return 0
				})
			}
			d := pool.Stats().Sub(before)
			if got := d.Fences(); got != 2*n {
				t.Fatalf("%d fences for %d txs, want %d (2 per tx)", got, n, 2*n)
			}
		})
	}
}

func TestStoreAggregationReducesLogAndPWBs(t *testing.T) {
	// 100 stores to the same word: Opt logs once and flushes one line;
	// Base logs and flushes 100 times.
	counts := make(map[Variant]uint64)
	for _, v := range []Variant{Base, Opt} {
		e, pool := newEngine(t, 1, v, pmem.Direct)
		addr := ptm.RootAddr(0)
		e.Update(0, func(m ptm.Mem) uint64 { m.Store(addr, 0); return 0 })
		before := pool.Stats()
		e.Update(0, func(m ptm.Mem) uint64 {
			for i := uint64(1); i <= 100; i++ {
				m.Store(addr, i)
			}
			return 0
		})
		counts[v] = pool.Stats().Sub(before).PWBs
		if got := e.Read(0, func(m ptm.Mem) uint64 { return m.Load(addr) }); got != 100 {
			t.Fatalf("%v: final value = %d, want 100", v, got)
		}
	}
	if counts[Opt] >= counts[Base] {
		t.Fatalf("store aggregation ineffective: Opt %d pwbs vs Base %d", counts[Opt], counts[Base])
	}
	if counts[Opt] != 2 { // one data line + one header
		t.Fatalf("Opt pwbs = %d, want 2", counts[Opt])
	}
}

func TestFlushAggregationSameLine(t *testing.T) {
	// Stores to 8 words of one cache line: Opt issues one pwb for all.
	e, pool := newEngine(t, 1, Opt, pmem.Direct)
	e.Update(0, func(m ptm.Mem) uint64 { return 0 })
	before := pool.Stats()
	e.Update(0, func(m ptm.Mem) uint64 {
		for i := uint64(0); i < 7; i++ {
			m.Store(ptm.RootAddr(0)+i, i) // words 1..7: all within line 0
		}
		return 0
	})
	d := pool.Stats().Sub(before)
	if d.PWBs != 2 { // aggregated data line + header
		t.Fatalf("pwbs = %d, want 2 (flush aggregation)", d.PWBs)
	}
}

func TestUndoPathOnConsensusLoss(t *testing.T) {
	// Heavy contention forces CAS failures and undo; the counter must
	// still be exact and results exactly-once (covered above); here we
	// additionally verify with a tiny ring to force copies too. The bulk
	// case logs a 130-word record spanning log chunks before each
	// thread's own counter, so an undo that misparses the record
	// boundaries leaves a stale per-thread count on the losing replica.
	const threads, perThread, payload = 4, 300, 130
	for _, tc := range []struct {
		name    string
		variant Variant
		bulk    bool
	}{{"word", Base, false}, {"bulk", Opt, true}} {
		t.Run(tc.name, func(t *testing.T) {
			pool := pmem.New(pmem.Config{RegionWords: 1 << 14, Regions: threads + 1})
			e := New(pool, Config{Threads: threads, RingSize: 4, Variant: tc.variant})
			addr, root := ptm.RootAddr(0), ptm.RootAddr(1)
			if tc.bulk {
				e.Update(0, func(m ptm.Mem) uint64 {
					base := m.Alloc(payload + threads)
					ptm.ZeroWords(m, base, payload+threads)
					m.Store(root, base)
					return 0
				})
			}
			var wg sync.WaitGroup
			for tid := 0; tid < threads; tid++ {
				wg.Add(1)
				go func(tid int) {
					defer wg.Done()
					for i := 0; i < perThread; i++ {
						e.Update(tid, func(m ptm.Mem) uint64 {
							val := m.Load(addr) + 1
							m.Store(addr, val)
							if tc.bulk {
								base := m.Load(root)
								words := make([]uint64, payload)
								for j := range words {
									words[j] = val
								}
								ptm.StoreWords(m, base, words)
								mine := base + payload + uint64(tid)
								m.Store(mine, m.Load(mine)+1)
							}
							return val
						})
					}
				}(tid)
			}
			wg.Wait()
			const want = threads * perThread
			if got := e.Read(0, func(m ptm.Mem) uint64 { return m.Load(addr) }); got != want {
				t.Fatalf("counter = %d, want %d", got, want)
			}
			if tc.bulk {
				got := make([]uint64, payload+threads)
				e.Read(0, func(m ptm.Mem) uint64 { ptm.LoadWords(m, m.Load(root), got); return 0 })
				for j, w := range got {
					if j < payload && w != want || j >= payload && w != perThread {
						t.Fatalf("word %d = %d, want payload %d, per-thread counts %d", j, w, want, perThread)
					}
				}
			}
			if e.Copies() == 0 {
				t.Fatal("tiny ring produced no replica copies")
			}
		})
	}
}

func TestReplayAvoidsReexecution(t *testing.T) {
	// The point of physical logging: after warm-up, sequential updates
	// catch replicas up via log replay, not full copies.
	e, _ := newEngine(t, 1, Base, pmem.Direct)
	addr := ptm.RootAddr(0)
	for i := 0; i < 20; i++ { // warm up both replicas
		e.Update(0, func(m ptm.Mem) uint64 { m.Store(addr, uint64(i)); return 0 })
	}
	before := e.Copies()
	for i := 0; i < 200; i++ {
		e.Update(0, func(m ptm.Mem) uint64 { m.Store(addr, uint64(i)); return 0 })
	}
	if d := e.Copies() - before; d > 0 {
		t.Fatalf("%d copies during steady-state replay, want 0", d)
	}
}

func TestReadOnlyTransactionCannotStore(t *testing.T) {
	e, _ := newEngine(t, 1, Opt, pmem.Direct)
	defer func() {
		if recover() == nil {
			t.Error("Store inside Read did not panic")
		}
	}()
	e.Read(0, func(m ptm.Mem) uint64 {
		//pmemvet:allow readonly -- this test asserts the runtime rejection of exactly this violation
		m.Store(ptm.RootAddr(0), 1)
		return 0
	})
}

func TestMultiObjectTransaction(t *testing.T) {
	const threads = 4
	e, _ := newEngine(t, threads, Opt, pmem.Direct)
	q1 := seqds.Queue{RootSlot: 0}
	q2 := seqds.Queue{RootSlot: 1}
	e.Update(0, func(m ptm.Mem) uint64 {
		q1.Init(m)
		q2.Init(m)
		for i := uint64(0); i < 50; i++ {
			q1.Enqueue(m, i)
		}
		return 0
	})
	var wg sync.WaitGroup
	for tid := 0; tid < threads; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			for i := 0; i < 150; i++ {
				e.Update(tid, func(m ptm.Mem) uint64 {
					if v, ok := q1.Dequeue(m); ok {
						q2.Enqueue(m, v)
					} else if v, ok := q2.Dequeue(m); ok {
						q1.Enqueue(m, v)
					}
					return 0
				})
			}
		}(tid)
	}
	wg.Wait()
	total := e.Read(0, func(m ptm.Mem) uint64 { return q1.Len(m) + q2.Len(m) })
	if total != 50 {
		t.Fatalf("total = %d, want 50 (move not atomic)", total)
	}
}

func TestSPSSumPreserved(t *testing.T) {
	for _, v := range variants() {
		t.Run(v.String(), func(t *testing.T) {
			const threads = 4
			e, _ := newEngine(t, threads, v, pmem.Direct)
			sps := seqds.SPS{RootSlot: 0}
			const n = 128
			e.Update(0, func(m ptm.Mem) uint64 { sps.Init(m, n); return 0 })
			want := e.Read(0, func(m ptm.Mem) uint64 { return sps.Sum(m) })
			var wg sync.WaitGroup
			for tid := 0; tid < threads; tid++ {
				wg.Add(1)
				go func(tid int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(tid)))
					for i := 0; i < 200; i++ {
						x, y := uint64(rng.Intn(n)), uint64(rng.Intn(n))
						e.Update(tid, func(m ptm.Mem) uint64 { sps.Swap(m, x, y); return 0 })
					}
				}(tid)
			}
			wg.Wait()
			if got := e.Read(0, func(m ptm.Mem) uint64 { return sps.Sum(m) }); got != want {
				t.Fatalf("Sum = %d, want %d", got, want)
			}
		})
	}
}

func TestProfileAccumulates(t *testing.T) {
	prof := &ptm.Profile{}
	pool := pmem.New(pmem.Config{RegionWords: 1 << 14, Regions: 2})
	e := New(pool, Config{Threads: 1, Variant: Base, Profile: prof})
	addr := ptm.RootAddr(0)
	for i := 0; i < 50; i++ {
		e.Update(0, func(m ptm.Mem) uint64 { m.Store(addr, uint64(i)); return 0 })
	}
	s := prof.Snapshot()
	if s.Txs != 50 {
		t.Fatalf("profiled %d txs, want 50", s.Txs)
	}
	if s.Total <= 0 || s.MeanTx() <= 0 {
		t.Fatalf("profile totals empty: %+v", s)
	}
	if s.Lambda <= 0 {
		t.Fatal("no lambda time recorded")
	}
}
