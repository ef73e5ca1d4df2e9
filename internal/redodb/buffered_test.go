package redodb

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/pmem"
)

// bufferedOpts is the caller-driven buffered configuration the crash tests
// use: no persister goroutine, so every pmem instruction count is
// deterministic and injected failures fire on the test's own goroutine.
var bufferedOpts = Options{Threads: 1, Buffered: true}

func bkey(i int) []byte { return []byte(fmt.Sprintf("k%03d", i)) }

// survivedPrefix returns how many of keys k000..k(n-1) are present, and
// fails the test if the surviving set is not a contiguous prefix — the one
// buffered-durability loss shape: a crash may truncate un-synced epochs
// from the tail but may never punch a gap into the commit order.
func survivedPrefix(t *testing.T, s *Session, n int) int {
	t.Helper()
	m := 0
	for i := 0; i < n; i++ {
		if s.Has(bkey(i)) {
			if i != m {
				t.Fatalf("gap loss: k%03d survived but k%03d did not", i, m)
			}
			m++
		}
	}
	return m
}

// TestBufferedSemantics covers the API contract: reads see un-persisted
// commits immediately, the watermark trails the committed epoch until a
// seal, Sync advances it to at least the session's last epoch, and Syncs
// racing from two sessions (serialized by persistMu) each return with their
// own work durable. WriteOptions.Sync is pinned by TestWriteOptionsMatrix.
func TestBufferedSemantics(t *testing.T) {
	pool := pmem.New(pmem.Config{Mode: pmem.Direct, RegionWords: 1 << 16, Regions: 4})
	db := Open(pool, Options{Threads: 2, Buffered: true})
	if !db.Buffered() {
		t.Fatal("DB not in buffered mode")
	}
	s := db.Session(0)
	base := db.DurableEpoch()
	for i := 0; i < 8; i++ {
		s.Put(bkey(i), []byte{byte(i)})
	}
	if got, want := s.LastEpoch(), db.CommittedEpoch(); got != want {
		t.Fatalf("LastEpoch %d != CommittedEpoch %d with a single writer", got, want)
	}
	if db.DurableEpoch() != base {
		t.Fatalf("watermark advanced to %d without a Persist", db.DurableEpoch())
	}
	if !s.Has(bkey(7)) {
		t.Fatal("read missed a committed (volatile) put")
	}
	s.Sync()
	if db.DurableEpoch() < s.LastEpoch() {
		t.Fatalf("Sync returned with watermark %d < last epoch %d", db.DurableEpoch(), s.LastEpoch())
	}

	var wg sync.WaitGroup
	for tid := 0; tid < 2; tid++ {
		wg.Add(1)
		go func(s *Session) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				s.Put(bkey(s.tid*100+i%32), []byte{byte(i)})
				if i%16 == 0 {
					s.Sync()
					if d, e := db.DurableEpoch(), s.LastEpoch(); d < e {
						t.Errorf("session %d: Sync returned with watermark %d < last epoch %d", s.tid, d, e)
						return
					}
				}
			}
		}(db.Session(tid))
	}
	wg.Wait()
}

// TestBufferedSuffixLossNeverGap crashes (both models) with a tail of
// un-synced puts in flight and asserts the recovered state is always a
// commit-order prefix that includes everything up to the last Sync.
func TestBufferedSuffixLossNeverGap(t *testing.T) {
	for _, policy := range []pmem.CrashPolicy{pmem.CrashConservative, pmem.CrashAdversarial} {
		policy := policy
		t.Run(fmt.Sprintf("policy-%d", policy), func(t *testing.T) {
			const synced, total = 10, 30
			pool := pmem.New(pmem.Config{Mode: pmem.Strict, RegionWords: 1 << 14, Regions: 3})
			db := Open(pool, bufferedOpts)
			s := db.Session(0)
			for i := 0; i < synced; i++ {
				s.Put(bkey(i), []byte{byte(i)})
			}
			s.Sync()
			for i := synced; i < total; i++ {
				s.Put(bkey(i), []byte{byte(i)})
			}
			pool.Crash(policy, rand.New(rand.NewSource(42)))
			s2 := Open(pool, bufferedOpts).Session(0)
			m := survivedPrefix(t, s2, total)
			if m < synced {
				t.Fatalf("synced prefix lost: only %d of %d synced puts survived", m, synced)
			}
		})
	}
}

// TestRecoverIsIdempotentBuffered mirrors TestRecoverIsIdempotent for the
// buffered engine: a crash mid-workload (Puts interleaved with epoch
// seals), then repeated recoveries of the same image must reproduce the
// same logical state and identical persistence work each time.
func TestRecoverIsIdempotentBuffered(t *testing.T) {
	pool := pmem.New(pmem.Config{Mode: pmem.Strict, RegionWords: 1 << 14, Regions: 3})
	crashed := false
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
		db := Open(pool, bufferedOpts)
		s := db.Session(0)
		pool.InjectFailure(300)
		for i := 0; i < 25; i++ {
			s.Put(bkey(i), []byte{byte(i)})
			if (i+1)%4 == 0 {
				db.Persist()
			}
		}
	}()
	if !crashed {
		t.Fatal("failure point never fired")
	}
	pool.Crash(pmem.CrashConservative, nil)
	var stats [3]pmem.StatsSnapshot
	var states [3][]string
	for i := range stats {
		pool.ResetStats()
		s := Open(pool, bufferedOpts).Session(0)
		stats[i] = pool.Stats()
		for j := 0; j < 25; j++ {
			if v, ok := s.Get(bkey(j)); ok {
				states[i] = append(states[i], fmt.Sprintf("k%03d=%x", j, v))
			}
		}
		pool.Crash(pmem.CrashConservative, nil)
	}
	if !reflect.DeepEqual(states[1], states[0]) || !reflect.DeepEqual(states[2], states[1]) {
		t.Fatalf("recovered state drifted across recoveries: %v / %v / %v",
			states[0], states[1], states[2])
	}
	if stats[1] != stats[2] {
		t.Fatalf("recovery work drifted: %+v vs %+v", stats[1], stats[2])
	}
}

// TestBufferedWatermarkAdvanceRecrash sweeps an injected failure across
// every instruction of a watermark advance (the Persist protocol: seal,
// coalesced flush, fence, header store, write-back, psync) and, for each
// crash point, asserts the prefix invariant and that re-crashing recovery
// reaches a fixed point — same state, same persistence work, under both
// crash models.
func TestBufferedWatermarkAdvanceRecrash(t *testing.T) {
	const preSynced, total = 6, 12
	for _, policy := range []pmem.CrashPolicy{pmem.CrashConservative, pmem.CrashAdversarial} {
		policy := policy
		t.Run(fmt.Sprintf("policy-%d", policy), func(t *testing.T) {
			for point := int64(1); ; point++ {
				pool := pmem.New(pmem.Config{Mode: pmem.Strict, RegionWords: 1 << 14, Regions: 3})
				db := Open(pool, bufferedOpts)
				s := db.Session(0)
				for i := 0; i < preSynced; i++ {
					s.Put(bkey(i), []byte{byte(i)})
				}
				s.Sync()
				for i := preSynced; i < total; i++ {
					s.Put(bkey(i), []byte{byte(i)})
				}
				// Arm the injector for the watermark advance only: point
				// counts instructions inside this Persist call.
				crashed := false
				pool.InjectFailure(point)
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
					db.Persist()
				}()
				if !crashed {
					// The whole advance fits below this point: sweep done.
					if point == 1 {
						t.Fatal("Persist issued no pmem instructions")
					}
					return
				}
				pool.Crash(policy, rand.New(rand.NewSource(point)))
				s2 := Open(pool, bufferedOpts).Session(0)
				m := survivedPrefix(t, s2, total)
				if m < preSynced {
					t.Fatalf("point %d: synced prefix lost (%d < %d)", point, m, preSynced)
				}
				// Re-crash during recovery must be a fixed point.
				pool.Crash(policy, rand.New(rand.NewSource(point+1)))
				var stats [2]pmem.StatsSnapshot
				var states [2]int
				for i := range stats {
					pool.ResetStats()
					s3 := Open(pool, bufferedOpts).Session(0)
					stats[i] = pool.Stats()
					states[i] = survivedPrefix(t, s3, total)
					pool.Crash(policy, rand.New(rand.NewSource(point+2)))
				}
				if states[0] != states[1] || stats[0] != stats[1] {
					t.Fatalf("point %d: recovery not a fixed point: %d/%d keys, %+v vs %+v",
						point, states[0], states[1], stats[0], stats[1])
				}
			}
		})
	}
}
