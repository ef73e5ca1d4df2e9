package shardeddb

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/pmem"
)

// bufOpts is the caller-driven buffered configuration the crash tests use.
var bufOpts = Options{Threads: 1, Buffered: true, PersistEvery: -1}

func bufGroup(shards int) *pmem.Group {
	return NewGroup(GroupConfig{Shards: shards, Threads: 1, Mode: pmem.Strict, Buffered: true})
}

// TestBufferedShardedSemantics covers the sharded buffered API: per-shard
// watermarks trail until Persist and Sync is the cross-shard barrier.
// WriteOptions.Sync is pinned by TestWriteOptionsMatrix.
func TestBufferedShardedSemantics(t *testing.T) {
	g := bufGroup(4)
	db := Open(g, bufOpts)
	if !db.Buffered() {
		t.Fatal("DB not in buffered mode")
	}
	s := db.Session(0)
	for i := 0; i < 16; i++ {
		s.Put([]byte(fmt.Sprintf("key%02d", i)), []byte{byte(i)})
	}
	lag := 0
	for sh := 0; sh < db.Shards(); sh++ {
		if db.DurableEpoch(sh) < db.CommittedEpoch(sh) {
			lag++
		}
	}
	if lag == 0 {
		t.Fatal("no shard watermark lags its committed epoch — buffering is not live")
	}
	s.Sync()
	for sh := 0; sh < db.Shards(); sh++ {
		if db.DurableEpoch(sh) < db.CommittedEpoch(sh) {
			t.Fatalf("shard %d watermark %d still behind tail %d after Sync",
				sh, db.DurableEpoch(sh), db.CommittedEpoch(sh))
		}
	}
}

// TestBufferedCrossShardBatchAtomic pins the cross-shard Sync barrier: at
// every injected crash point inside a buffered cross-shard Write (intent
// publish, volatile sub-batch commits, per-shard persists, intent retire),
// recovery must observe the batch all-or-nothing — buffering must never
// turn a completed batch into a torn one.
func TestBufferedCrossShardBatchAtomic(t *testing.T) {
	for _, policy := range []pmem.CrashPolicy{pmem.CrashConservative, pmem.CrashAdversarial} {
		policy := policy
		t.Run(fmt.Sprintf("policy-%d", policy), func(t *testing.T) {
			for fail := int64(1); fail < 500; fail += 3 {
				g := bufGroup(2)
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
					s := Open(g, bufOpts).Session(0)
					batch := &WriteBatch{}
					for i := 0; i < 6; i++ {
						batch.Put([]byte(fmt.Sprintf("%c-torn", 'a'+i)), []byte("x"))
					}
					g.InjectFailure(fail)
					s.Write(batch)
				}()
				if !crashed {
					continue
				}
				g.Crash(policy, newTestRand(fail))
				db := Open(g, bufOpts)
				if got := db.Group().Pool(0).Region(0).PersistedLoad(coordStatus); got != 0 {
					t.Fatalf("fail=%d: intent still open after recovery (status %d)", fail, got)
				}
				s := db.Session(0)
				present := 0
				for i := 0; i < 6; i++ {
					if _, ok := s.Get([]byte(fmt.Sprintf("%c-torn", 'a'+i))); ok {
						present++
					}
				}
				if present != 0 && present != 6 {
					t.Fatalf("fail=%d: torn batch after buffered recovery (%d/6 keys)", fail, present)
				}
			}
		})
	}
}

// TestRecoverIsIdempotentBuffered is the buffered mirror of
// TestRecoverIsIdempotent: a crash inside the buffered cross-shard batch
// stream (volatile sub-batches, open intents, watermark advances), then
// repeated recoveries must converge to a fixed point — including the
// roll-forward path, whose replayed sub-batches are persisted before the
// intent retires.
func TestRecoverIsIdempotentBuffered(t *testing.T) {
	g := bufGroup(4)
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
		s := Open(g, bufOpts).Session(0)
		for i := 0; i < 10; i++ {
			s.Put([]byte(fmt.Sprintf("seed%02d", i)), []byte{byte(i)})
		}
		s.Sync()
		g.InjectFailure(900)
		for b := 0; ; b++ {
			batch := &WriteBatch{}
			for i := 0; i < 6; i++ {
				batch.Put([]byte(fmt.Sprintf("%c-idem%02d", 'a'+i, b)), []byte{byte(b)})
			}
			s.Write(batch)
		}
	}()
	if !crashed {
		t.Fatal("failure point never fired")
	}
	g.Crash(pmem.CrashConservative, nil)

	dump := func(s *Session) []string {
		var out []string
		it := s.NewIterator()
		for it.Next() {
			out = append(out, fmt.Sprintf("%s=%x", it.Key(), it.Value()))
		}
		return out
	}
	var stats [3]pmem.StatsSnapshot
	var states [3][]string
	for i := range stats {
		g.ResetStats()
		db := Open(g, bufOpts)
		stats[i] = g.Stats()
		states[i] = dump(db.Session(0))
		g.Crash(pmem.CrashConservative, nil)
	}
	for i := 1; i < 3; i++ {
		if fmt.Sprint(states[i]) != fmt.Sprint(states[0]) {
			t.Fatalf("recovered state drifted across recoveries:\n%v\n%v", states[0], states[i])
		}
	}
	if stats[1] != stats[2] {
		t.Fatalf("recovery work drifted: %+v vs %+v", stats[1], stats[2])
	}
	// Seeded keys were synced before the failure window: they must survive.
	s := Open(g, bufOpts).Session(0)
	for i := 0; i < 10; i++ {
		if !s.Has([]byte(fmt.Sprintf("seed%02d", i))) {
			t.Fatalf("synced seed%02d lost", i)
		}
	}
}

// TestBufferedShardedPersisterGoroutine is the group-persister smoke: one
// background goroutine seals all shards; Sync and cross-shard writes complete
// under it and Close drains cleanly. Run under -race by ci.sh.
func TestBufferedShardedPersisterGoroutine(t *testing.T) {
	g := NewGroup(GroupConfig{Shards: 2, Threads: 2, Buffered: true})
	db := Open(g, Options{Threads: 2, Buffered: true, PersistEvery: 50 * time.Microsecond})
	defer db.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		s := db.Session(1)
		for i := 0; i < 100; i++ {
			s.Put([]byte(fmt.Sprintf("g%03d", i)), []byte{byte(i)})
			if i%10 == 0 {
				s.Sync()
			}
		}
		s.Sync()
	}()
	s := db.Session(0)
	for b := 0; b < 30; b++ {
		batch := &WriteBatch{}
		batch.Put([]byte(fmt.Sprintf("x%02d", b)), []byte{byte(b)})
		batch.Put([]byte(fmt.Sprintf("y%02d", b)), []byte{byte(b)})
		s.Write(batch)
	}
	s.Sync()
	<-done
	for sh := 0; sh < db.Shards(); sh++ {
		if db.DurableEpoch(sh) < db.CommittedEpoch(sh) {
			t.Fatalf("shard %d not durable after Sync", sh)
		}
	}
}
