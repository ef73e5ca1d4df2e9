package main

import (
	"bytes"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/load"
	"repro/internal/pmem"
	"repro/internal/ptm"
	"repro/internal/redodb"
)

// fill: one RedoDB session (RedoOpt, synchronous durability) on a Strict
// pool fills an empty store with fillKeys distinct keys in seeded random
// order, reads every key back once in another seeded order, then crashes
// the pool and reopens copies of the crashed image. Every round repeats
// exactly the same operations on a fresh store, so the persistence counts
// of a round are the same in every round and every run.
const (
	// fillKeys grows the table from 64 buckets ten times (the last growth
	// rehashes 32768 nodes).
	fillKeys = 50000
	// fillRegionWords holds fillKeys keys with room for the growth
	// transactions' freed bucket arrays.
	fillRegionWords = 1 << 21
	// recoverReps is how many copies of one image each recovery
	// measurement reopens.
	recoverReps = 3
)

func runFill(cfg config) *outcome {
	o := newOutcome(cfg)
	rng := rand.New(rand.NewSource(cfg.seed))
	writeOrder := rng.Perm(fillKeys)
	readOrder := rng.Perm(fillKeys)
	keys := make([][]byte, fillKeys)
	vals := make([][]byte, fillKeys)
	for k := range keys {
		keys[k] = load.KeyBytes(nil, uint64(k))
		vals[k] = appendValue(nil, valueID{key: uint64(k), seq: uint64(k)})
	}
	f := &filler{o: o, cfg: cfg, keys: keys, vals: vals}
	// Warm-up: a round on an eighth of the keys, measured by nobody.
	f.round(writeOrder[:fillKeys/8], readOrder[:0], false)
	start := time.Now()
	for time.Since(start) < cfg.seconds {
		f.round(writeOrder, readOrder, true)
	}
	o.e2e.lat = o.e2e.tput
	return o
}

type filler struct {
	o          *outcome
	cfg        config
	keys, vals [][]byte
}

// round runs one fill on a fresh store: set-up, the write phase, the
// read-back phase, the checks, and recovery after a crash. Only a measured
// round adds samples.
func (f *filler) round(writeOrder, readOrder []int, measure bool) {
	o, e, l := f.o, &f.o.e2e, &f.o.lay
	runtime.GC()
	t0 := time.Now()
	pool := pmem.New(pmem.Config{Mode: pmem.Strict, RegionWords: fillRegionWords, Regions: 2})
	var prof *ptm.Profile
	if f.cfg.trace {
		prof = &ptm.Profile{}
	}
	db := redodb.Open(pool, redodb.Options{Threads: 1, Profile: prof})
	s := db.Session(0)
	setup := time.Since(t0)

	if f.cfg.trace && measure {
		pool.SetTracer(l.tally.tr)
		l.tally.resume()
	}
	stats0, copies0, prof0 := pool.Stats(), db.Engine().Copies(), prof.Snapshot()
	writes := make(latencies, 0, len(writeOrder))
	phase := time.Now()
	for _, k := range writeOrder {
		t := time.Now()
		s.Put(f.keys[k], f.vals[k])
		writes.add(time.Since(t))
		if f.cfg.trace && l.tally.tr.Len() > tracerEvents/4 {
			l.tally.drain()
		}
	}
	writeTime := time.Since(phase)
	l.tally.drain()
	l.tally.pause()
	pool.SetTracer(nil)
	stats := pool.Stats().Sub(stats0)
	o.attempted += int64(len(writeOrder))

	reads := make(latencies, 0, len(readOrder))
	var dst []byte
	phase = time.Now()
	for _, k := range readOrder {
		t := time.Now()
		v, ok := s.GetAppend(dst[:0], f.keys[k])
		reads.add(time.Since(t))
		f.checkRead(k, v, ok, "read-back")
		dst = v
	}
	readTime := time.Since(phase)
	o.attempted += int64(len(readOrder))

	n := uint64(len(writeOrder))
	heap := db.NVMUsedBytes()
	f.checkStore(db, writeOrder, false)
	if measure {
		e.setup.add(setup)
		e.tput.list = append(e.tput.list, window{
			writeOps: int64(n), readOps: int64(len(readOrder)),
			writeTime: writeTime, readTime: readTime,
			writes: writes, reads: reads,
		})
		e.pwbs += stats.PWBs
		e.heapBytes += heap
		e.liveKeys += n
		l.writes += int64(n)
		l.ops += int64(n)
		l.pmem = addStats(l.pmem, stats)
		l.copies += db.Engine().Copies() - copies0
		l.prof = addProfile(l.prof, prof.Snapshot(), prof0)
		l.writeMax = max(l.writeMax, writes.max())
		l.slowWrite += writes.sumOver(slowWriteLimit)
		l.heap = db.AllocStats()
	}

	// Power failure, then null recovery of copies of the crashed image.
	pool.Crash(pmem.CrashConservative, nil)
	scratch := pool.Clone()
	first := writeOrder[0]
	var last *redodb.DB
	total, opened := timeReopens(recoverReps, func() { pool.CloneInto(scratch) }, func() func() {
		last = redodb.Open(scratch, redodb.Options{Threads: 1})
		return func() { last.Session(0).Put(f.keys[first], f.vals[first]) }
	})
	o.attempted += recoverReps
	if measure {
		e.recovery = append(e.recovery, total...)
		l.open = append(l.open, opened...)
		for i := range total {
			l.firstWrite.add(time.Duration(total[i] - opened[i]))
		}
	}
	f.checkStore(last, writeOrder, true)
}

// checkStore checks a store that should hold exactly the keys of order with
// their values: its count, its allocator and its heap size, and (after a
// crash) every value.
func (f *filler) checkStore(db *redodb.DB, order []int, values bool) {
	o := f.o
	checkRedoHeap(&o.checks, db, len(order))
	if !values {
		return
	}
	s := db.Session(0)
	var dst []byte
	for _, k := range order {
		v, ok := s.GetAppend(dst[:0], f.keys[k])
		o.attempted++
		f.checkRead(k, v, ok, "after crash")
		dst = v
	}
}

// checkRead checks that a read of key k returned exactly the value written.
func (f *filler) checkRead(k int, v []byte, ok bool, when string) {
	if !ok {
		f.o.fail("%s: read %q: %v", when, f.keys[k], errMissing)
	} else if !bytes.Equal(v, f.vals[k]) {
		f.o.fail("%s: read %q: %v", when, f.keys[k], errValue)
	}
}

func addStats(a, b pmem.StatsSnapshot) pmem.StatsSnapshot {
	return pmem.StatsSnapshot{
		PWBs:        a.PWBs + b.PWBs,
		PFences:     a.PFences + b.PFences,
		PSyncs:      a.PSyncs + b.PSyncs,
		NTStores:    a.NTStores + b.NTStores,
		WordsCopied: a.WordsCopied + b.WordsCopied,
	}
}

// addProfile adds the interval cur - base to acc.
func addProfile(acc, cur, base ptm.ProfileSnapshot) ptm.ProfileSnapshot {
	return ptm.ProfileSnapshot{
		Apply:  acc.Apply + cur.Apply - base.Apply,
		Flush:  acc.Flush + cur.Flush - base.Flush,
		Copy:   acc.Copy + cur.Copy - base.Copy,
		Lambda: acc.Lambda + cur.Lambda - base.Lambda,
		Sleep:  acc.Sleep + cur.Sleep - base.Sleep,
		Total:  acc.Total + cur.Total - base.Total,
		Txs:    acc.Txs + cur.Txs - base.Txs,
	}
}
