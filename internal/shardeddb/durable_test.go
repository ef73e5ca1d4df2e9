package shardeddb

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/lincheck"
	"repro/internal/pmem"
)

// The durable-lincheck suite: concurrent sessions run single-key operations
// against a Strict-mode sharded DB while a group-wide power failure is
// armed; every thread dies at its next persistence event once the failure
// fires. The timestamped history — completed ops with their results,
// in-flight ops as pending, post-recovery observer reads — must be durably
// linearizable against the sequential KV model: completed effects survive
// the crash, in-flight ones land or vanish consistently.

const durableKeys = 5

func durableKey(k uint64) []byte { return []byte(fmt.Sprintf("dlin-key-%d", k)) }

func durableVal(v uint64) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	return b[:]
}

func decodeVal(t *testing.T, b []byte, ok bool) uint64 {
	if !ok {
		return 0
	}
	if len(b) != 8 {
		t.Fatalf("torn value read back: %x", b)
	}
	return binary.LittleEndian.Uint64(b)
}

func TestDurableLinearizability(t *testing.T) {
	for _, shards := range []int{1, 2, 8} {
		for fail := int64(40); fail <= 600; fail += 93 {
			runDurableRound(t, shards, fail)
		}
	}
}

func runDurableRound(t *testing.T, shards int, fail int64) {
	const workers = 2
	const opsPerWorker = 30
	g := NewGroup(GroupConfig{Shards: shards, Threads: workers, Mode: pmem.Strict})
	db := Open(g, Options{Threads: workers})

	var clock atomic.Int64
	histories := make([][]lincheck.DurableOp, workers)
	g.InjectFailure(fail)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(tid)*7919 + fail))
			s := db.Session(tid)
			for i := 0; i < opsPerWorker; i++ {
				key := rng.Uint64()%durableKeys + 1
				val := uint64(tid*opsPerWorker+i) + 1 // nonzero, unique
				var kind string
				switch rng.Intn(4) {
				case 0, 1:
					kind = "put"
				case 2:
					kind = "get"
				case 3:
					kind = "del"
				}
				op := lincheck.Op{Thread: tid, Kind: kind, Arg: key}
				if kind == "put" {
					op.Arg2 = val
				}
				op.Call = clock.Add(1)
				crashed := !func() (completed bool) {
					defer func() {
						if r := recover(); r != nil {
							if r != pmem.ErrSimulatedPowerFailure {
								panic(r)
							}
							completed = false
						}
					}()
					switch kind {
					case "put":
						s.Put(durableKey(key), durableVal(val))
					case "get":
						v, ok := s.Get(durableKey(key))
						op.Result = decodeVal(t, v, ok)
					case "del":
						if s.Delete(durableKey(key)) {
							op.Result = 1
						}
					}
					return true
				}()
				if crashed {
					// Return is stamped with the shared crash time after
					// every thread has stopped.
					histories[tid] = append(histories[tid], lincheck.DurableOp{Op: op, Pending: true})
					return
				}
				op.Return = clock.Add(1)
				histories[tid] = append(histories[tid], lincheck.DurableOp{Op: op})
			}
		}(w)
	}
	wg.Wait()

	crashStamp := clock.Add(1)
	var history []lincheck.DurableOp
	anyPending := false
	for _, h := range histories {
		for _, op := range h {
			if op.Pending {
				op.Return = crashStamp
				anyPending = true
			}
			history = append(history, op)
		}
	}
	if !anyPending {
		// The budget outlived the workload; nothing crash-specific to
		// check beyond plain linearizability of what ran.
		g.InjectFailure(-1)
	} else {
		g.Crash(pmem.CrashConservative, nil)
		g.InjectFailure(-1)
		db = Open(g, Options{Threads: 1})
	}

	// Post-recovery observer: read every key back as part of the history.
	s := db.Session(0)
	for k := uint64(1); k <= durableKeys; k++ {
		op := lincheck.Op{Thread: workers, Kind: "get", Arg: k}
		op.Call = clock.Add(1)
		v, ok := s.Get(durableKey(k))
		op.Result = decodeVal(t, v, ok)
		op.Return = clock.Add(1)
		history = append(history, lincheck.DurableOp{Op: op})
	}

	if !lincheck.CheckDurable(lincheck.KVModel{}, history) {
		for _, op := range history {
			t.Logf("t%d [%d,%d] %s(%d,%d) = %d pending=%v",
				op.Thread, op.Call, op.Return, op.Kind, op.Arg, op.Arg2, op.Result, op.Pending)
		}
		t.Fatalf("shards=%d fail=%d: history is not durably linearizable", shards, fail)
	}
}

// TestDurableLinearizabilityDetectable is the exactly-once durable suite:
// concurrent clients issue detectable puts until a group-wide power failure
// kills them mid-request, then each RETRIES its in-flight request after
// recovery. Original attempt and retry share a DupID, so CheckDurable
// accepts the history only if each request took effect at most once; the
// observer reads between recovery and the retries pin the original attempt's
// landing, which is what convicts a dedup miss (retry applying on top of a
// landed original) as a duplicate.
func TestDurableLinearizabilityDetectable(t *testing.T) {
	for _, shards := range []int{1, 8} {
		for fail := int64(40); fail <= 600; fail += 93 {
			runDetectableDurableRound(t, shards, fail)
		}
	}
}

// pendingReq remembers an in-flight detectable request so it can be retried.
type pendingReq struct {
	client, seq uint64
	key, val    uint64
	dup         uint64
}

func runDetectableDurableRound(t *testing.T, shards int, fail int64) {
	const workers = 2
	const opsPerWorker = 30
	g := NewGroup(GroupConfig{Shards: shards, Threads: workers, Mode: pmem.Strict})
	db := Open(g, Options{Threads: workers})

	var clock atomic.Int64
	histories := make([][]lincheck.DurableOp, workers)
	retries := make([]*pendingReq, workers)
	g.InjectFailure(fail)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(tid)*104729 + fail))
			s := db.Session(tid)
			client := uint64(tid + 1)
			seq := uint64(0)
			for i := 0; i < opsPerWorker; i++ {
				key := rng.Uint64()%durableKeys + 1
				val := uint64(tid*opsPerWorker+i) + 1
				isPut := rng.Intn(4) != 0
				op := lincheck.Op{Thread: tid, Kind: "get", Arg: key}
				var dupID uint64
				if isPut {
					seq++
					op.Kind, op.Arg2 = "put", val
					dupID = client<<32 | seq
				}
				op.Call = clock.Add(1)
				crashed := !func() (completed bool) {
					defer func() {
						if r := recover(); r != nil {
							if r != pmem.ErrSimulatedPowerFailure {
								panic(r)
							}
							completed = false
						}
					}()
					if isPut {
						detPut(s, client, seq, durableKey(key), durableVal(val))
					} else {
						v, ok := s.Get(durableKey(key))
						op.Result = decodeVal(t, v, ok)
					}
					return true
				}()
				if crashed {
					histories[tid] = append(histories[tid],
						lincheck.DurableOp{Op: op, Pending: true, DupID: dupID})
					if isPut {
						retries[tid] = &pendingReq{
							client: client, seq: seq, key: key, val: val, dup: dupID,
						}
					}
					return
				}
				op.Return = clock.Add(1)
				histories[tid] = append(histories[tid], lincheck.DurableOp{Op: op, DupID: dupID})
			}
		}(w)
	}
	wg.Wait()

	crashStamp := clock.Add(1)
	var history []lincheck.DurableOp
	anyPending := false
	for _, h := range histories {
		for _, op := range h {
			if op.Pending {
				op.Return = crashStamp
				anyPending = true
			}
			history = append(history, op)
		}
	}
	if !anyPending {
		g.InjectFailure(-1)
	} else {
		g.Crash(pmem.CrashConservative, nil)
		g.InjectFailure(-1)
		db = Open(g, Options{Threads: 1})
	}

	observe := func(s *Session) {
		for k := uint64(1); k <= durableKeys; k++ {
			op := lincheck.Op{Thread: workers, Kind: "get", Arg: k}
			op.Call = clock.Add(1)
			v, ok := s.Get(durableKey(k))
			op.Result = decodeVal(t, v, ok)
			op.Return = clock.Add(1)
			history = append(history, lincheck.DurableOp{Op: op})
		}
	}

	// Observer reads BEFORE the retries pin each in-flight attempt's fate,
	// then every crashed client retries its request: a dedup hit adds
	// nothing to the history (the original attempt owns the effect), an
	// applied retry adds a completed attempt under the same DupID.
	s := db.Session(0)
	observe(s)
	for _, r := range retries {
		if r == nil {
			continue
		}
		probe := s.WasApplied(r.client, r.seq)
		op := lincheck.Op{Thread: workers, Kind: "put", Arg: r.key, Arg2: r.val}
		op.Call = clock.Add(1)
		applied := detPut(s, r.client, r.seq, durableKey(r.key), durableVal(r.val))
		op.Return = clock.Add(1)
		if applied == probe {
			t.Fatalf("shards=%d fail=%d: retry of (%d,%d) applied=%v with prior receipt=%v",
				shards, fail, r.client, r.seq, applied, probe)
		}
		if applied {
			history = append(history, lincheck.DurableOp{Op: op, DupID: r.dup})
		}
	}
	observe(s)

	if !lincheck.CheckDurable(lincheck.KVModel{}, history) {
		for _, op := range history {
			t.Logf("t%d [%d,%d] %s(%d,%d) = %d pending=%v dup=%d",
				op.Thread, op.Call, op.Return, op.Kind, op.Arg, op.Arg2, op.Result, op.Pending, op.DupID)
		}
		t.Fatalf("shards=%d fail=%d: detectable history is not exactly-once durably linearizable",
			shards, fail)
	}
}
