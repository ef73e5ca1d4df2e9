package main

import (
	"math/rand"
	"runtime"
	"runtime/debug"
	"time"

	"repro/internal/load"
	"repro/internal/pmem"
	"repro/internal/ptm"
	"repro/internal/redodb"
)

// zipf-rw: two RedoDB sessions on a Direct pool preloaded in set-up, each
// running a closed loop of 50% Get and 50% overwriting Put on scrambled
// zipfian keys. No inserts, no growth, no network.
const (
	rwKeys          = 32768 // preloaded keys (the table ends at 32768 buckets)
	rwRegionWords   = 1 << 21
	workers         = 2    // goroutines or connections: one per core
	roundOps        = 1000 // operations per worker per round
	warmRounds      = 20   // untimed rounds before the timed phase
	stores          = 5    // stores set up per run; each serves 1/stores of the timed phase
	reopensPerStore = 10   // clean reopens of each store's image
	preloadBatch    = 64   // keys per set-up WriteBatch
	theta           = 0.99 // zipfian skew (the YCSB default)

	// windowSize is the length of the windows a timed phase is cut into;
	// rates and percentiles are medians over them.
	windowSize = 500 * time.Millisecond
)

// zipfKeys is one worker's seeded key and operation stream; stream
// numbers the workers of a run.
type zipfKeys struct {
	rng  *rand.Rand
	zipf *load.Zipf
}

func newZipfKeys(seed int64, stream int, zetan float64) zipfKeys {
	rng := rand.New(rand.NewSource(seed*1000003 + int64(stream)*7919))
	return zipfKeys{rng: rng, zipf: load.NewZipf(rng, rwKeys, theta, zetan)}
}

// next draws a key index and whether the operation is a read.
func (z zipfKeys) next() (uint64, bool) {
	k := z.zipf.Next()
	return k, z.rng.Intn(2) == 0
}

// rwWorker is one zipf-rw session with its own samples and checks.
type rwWorker struct {
	observer
	id     int
	s      *redodb.Session
	keys   zipfKeys
	hist   *history
	writes latencies
	reads  latencies
	key    []byte
	val    []byte
}

func (w *rwWorker) round(measure bool) {
	for i := 0; i < roundOps; i++ {
		k, read := w.keys.next()
		w.key = load.KeyBytes(w.key[:0], k)
		w.attempted++
		if read {
			t := time.Now()
			v, ok := w.s.GetAppend(w.val[:0], w.key)
			d := time.Since(t)
			w.val = v
			if measure {
				w.reads.add(d)
			}
			w.observe(k, v, ok)
			continue
		}
		id := w.hist.next(w.id, k)
		w.val = appendValue(w.val[:0], id)
		t := time.Now()
		w.s.Put(w.key, w.val)
		d := time.Since(t)
		w.hist.acked(id)
		if measure {
			w.writes.add(d)
		}
	}
}

// preloadRedo writes every key once, in batches, with its set-up value.
func preloadRedo(write func(keys, vals [][]byte), n int) {
	for base := 0; base < n; base += preloadBatch {
		var keys, vals [][]byte
		for k := base; k < n && k < base+preloadBatch; k++ {
			keys = append(keys, load.KeyBytes(nil, uint64(k)))
			vals = append(vals, appendValue(nil, valueID{key: uint64(k), writer: preloadWriter, seq: uint64(k)}))
		}
		write(keys, vals)
	}
}

func runZipfRW(cfg config) *outcome {
	o := newOutcome(cfg)
	e, l := &o.e2e, &o.lay
	var prof *ptm.Profile
	if cfg.trace {
		prof = &ptm.Profile{}
	}
	pools := make([]*pmem.Pool, stores)
	dbs := make([]*redodb.DB, stores)
	for i := range dbs {
		runtime.GC()
		t0 := time.Now()
		pools[i] = pmem.New(pmem.Config{Mode: pmem.Direct, RegionWords: rwRegionWords, Regions: workers + 1})
		dbs[i] = redodb.Open(pools[i], redodb.Options{Threads: workers, Profile: prof})
		s := dbs[i].Session(0)
		preloadRedo(func(keys, vals [][]byte) {
			var b redodb.WriteBatch
			for i := range keys {
				b.Put(keys[i], vals[i])
			}
			s.Write(&b)
		}, rwKeys)
		e.setup.add(time.Since(t0))
	}

	zetan := load.Zetan(rwKeys, theta)
	e.tput.size = windowSize
	var writes, reads latencies
	for i, db := range dbs {
		pool := pools[i]
		hist := newHistory(workers, rwKeys)
		ws := make([]*rwWorker, workers)
		for w := range ws {
			ws[w] = &rwWorker{id: w, s: db.Session(w), keys: newZipfKeys(cfg.seed, i*workers+w, zetan), hist: hist}
		}
		for r := 0; r < warmRounds; r++ {
			parallel(workers, func(w int) { ws[w].round(false) })
		}

		stats0, copies0, prof0 := pool.Stats(), db.Engine().Copies(), prof.Snapshot()
		if cfg.trace {
			pool.SetTracer(l.tally.tr)
			l.tally.resume()
		}
		runRounds(workers, cfg.seconds/stores, func(w int) { ws[w].round(true) }, func(d time.Duration) {
			l.tally.drain()
			writes, reads = writes[:0], reads[:0]
			for _, w := range ws {
				writes, reads = append(writes, w.writes...), append(reads, w.reads...)
				w.writes, w.reads = w.writes[:0], w.reads[:0]
			}
			e.tput.add(d, int64(len(writes)), int64(len(reads)), writes, reads)
			l.writes += int64(len(writes))
			l.ops += int64(len(writes) + len(reads))
			l.writeMax = max(l.writeMax, writes.max())
			l.slowWrite += writes.sumOver(slowWriteLimit)
		})
		l.tally.pause()
		pool.SetTracer(nil)
		stats := pool.Stats().Sub(stats0)
		e.pwbs += stats.PWBs
		l.pmem = addStats(l.pmem, stats)
		l.copies += db.Engine().Copies() - copies0
		l.prof = addProfile(l.prof, prof.Snapshot(), prof0)

		for _, w := range ws {
			w.verify(hist, &o.checks)
		}
		checkFinal(&o.checks, db.Session(0).GetAppend, hist, rwKeys)
		checkRedoHeap(&o.checks, db, rwKeys)
		e.heapBytes += db.NVMUsedBytes()
		e.liveKeys += rwKeys
		l.heap = db.AllocStats()

		// Clean restart: reopen copies of the quiescent image.
		scratch := pool.Clone()
		total, opened := timeReopens(reopensPerStore, func() { pool.CloneInto(scratch) }, func() func() {
			db := redodb.Open(scratch, redodb.Options{Threads: workers})
			return func() { db.Session(0).Put(reopenKey, reopenVal) }
		})
		o.attempted += reopensPerStore
		e.recovery = append(e.recovery, total...)
		l.open = append(l.open, opened...)
		for i := range total {
			l.firstWrite.add(time.Duration(total[i] - opened[i]))
		}
		pools[i], dbs[i] = nil, nil
	}
	e.lat = e.tput
	return o
}

// The write each reopen of a clean image completes: key 0's set-up value.
var (
	reopenKey = load.KeyBytes(nil, 0)
	reopenVal = appendValue(nil, valueID{writer: preloadWriter})
)

// timeReopens measures n reopens of copies of one image. restore makes the
// copy (untimed); open opens it and returns the first write, which
// completes the measurement. It returns each reopen's time to the end of
// the first write and to the end of the open. Garbage collection is off
// while it runs, so no collection lands inside a measurement.
func timeReopens(n int, restore func(), open func() (firstWrite func())) (total, opened latencies) {
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for i := 0; i < n; i++ {
		restore()
		t0 := time.Now()
		write := open()
		t1 := time.Now()
		write()
		total.add(time.Since(t0))
		opened.add(t1.Sub(t0))
	}
	return total, opened
}

// checkFinal reads every key once, after every writer stopped, and checks
// that each holds the last acknowledged write of one of the writers.
func checkFinal(c *checks, get func(dst, key []byte) ([]byte, bool), hist *history, n int) {
	var key, dst []byte
	for k := 0; k < n; k++ {
		key = load.KeyBytes(key[:0], uint64(k))
		v, ok := get(dst[:0], key)
		c.attempted++
		if !ok {
			c.fail("final read %d: %v", k, errMissing)
			continue
		}
		if err := hist.checkFinal(uint64(k), v); err != nil {
			c.fail("final read %d: %v", k, err)
		}
		dst = v
	}
}

// checkRedoHeap checks a RedoDB store that should hold n keys: its count,
// its allocator against its reachable blocks, and its heap size against
// the bytes stored.
func checkRedoHeap(c *checks, db *redodb.DB, n int) {
	if got := db.Session(0).Len(); got != uint64(n) {
		c.fail("Len = %d, want %d", got, n)
	}
	if err := db.AllocReconcile(); err != nil {
		c.fail("AllocReconcile: %v", err)
	}
	if heap, min := db.NVMUsedBytes(), uint64(n)*(keySize+valueSize); heap < min {
		c.fail("heap holds %d bytes, below the %d bytes stored", heap, min)
	}
}
