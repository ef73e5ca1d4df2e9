// Package chaos is the crash-consistency checking engine behind cmd/crashcheck:
// systematic single-crash sweeps, nested-crash (crash-during-recovery) sweeps
// in the model of Ben-David et al., and a corruption sweep that flips bits in
// the spans each engine declares unreachable from committed state.
//
// Every engine is driven through the same deterministic workload — insert
// keys 0..n-1, one durable transaction each — so a checker can count the
// completed transactions at the moment of a simulated power failure and then
// assert, after recovery, that the surviving state is exactly a prefix of
// the workload containing at least every completed insert.
package chaos

import (
	"bytes"
	"fmt"
	"strings"

	"repro/internal/bench"
	"repro/internal/onll"
	"repro/internal/pmem"
	"repro/internal/ptm"
	"repro/internal/redodb"
	"repro/internal/rockssim"
	"repro/internal/seqds"
	"repro/internal/shardeddb"
)

// Engine is one crash-sweep target: a row of the engine table every sweep,
// cmd/crashcheck and the tests look up by name. Group and Runner are
// factories — every crash run and every recovery takes a fresh one, so no
// volatile state leaks across a simulated crash.
type Engine struct {
	Name string
	// Group allocates the strict-mode pool group the engine runs on.
	Group func() *pmem.Group
	// Runner builds the deterministic workload driver.
	Runner func() *Runner
	// Stale declares the spans committed state does not reach — the
	// corruption sweep's bit-flip targets.
	Stale func(*pmem.Group) []pmem.GroupRange
	// BulkStores marks the RedoDB family, which stores byte payloads
	// through the aggregated bulk path, so its traces must contain
	// bulk-store events.
	BulkStores bool
	// Buffered marks a group-commit engine: its Verify asserts the
	// buffered durability contract and its traces must narrate epoch seals
	// and watermark advances.
	Buffered bool
}

// Engines lists every sweep target: the nine PTM/PUC constructions of the
// paper's comparison set (bench.AllEngines), the ONLL one-line-log, the two
// key-value stores, the sharded RedoDB front-end at each acceptance shard
// count (its only multi-pool engine — the shardeddb runners sweep the
// cross-shard batch coordinator's crash points), and the buffered
// (group-commit) variants of both stores.
func Engines() []Engine {
	var out []Engine
	for _, eng := range bench.AllEngines() {
		out = append(out, ptmEngine(eng))
	}
	return append(out,
		onllEngine(),
		// "redodb" churns a scratch key per insert; "redodb-bulkval" writes
		// multi-line variable-length values, so every insert is an
		// aggregated bulk log record and the sweeps exercise bulk replay,
		// range undo and the non-temporal full-line path.
		redodbEngine("redodb", oneByte, true), redodbEngine("redodb-bulkval", bulkVal, false),
		rockssimEngine(),
		shardedEngine(1, false), shardedEngine(2, false), shardedEngine(8, false),
		bufferedEngine(2), bufferedEngine(8),
		shardedEngine(1, true), shardedEngine(8, true),
	)
}

// Lookup returns the engine table row named name.
func Lookup(name string) (Engine, error) {
	return lookup(Engines(), func(e Engine) string { return e.Name }, "engine", name)
}

// lookup finds the row named name in a table, or reports an error that
// lists the known names.
func lookup[E any](rows []E, nameOf func(E) string, kind, name string) (E, error) {
	names := make([]string, len(rows))
	for i, e := range rows {
		if names[i] = nameOf(e); names[i] == name {
			return e, nil
		}
	}
	var zero E
	return zero, fmt.Errorf("chaos: unknown %s %q (known: %s)", kind, name, strings.Join(names, ", "))
}

// singlePool returns a Group factory for a single-pool engine: one
// strict-mode pool of the given replica count wrapped in a group (mirroring
// the factories' replica counts for a single-thread instance).
func singlePool(regions int) func() *pmem.Group {
	return func() *pmem.Group {
		return pmem.NewGroup(pmem.New(pmem.Config{Mode: pmem.Strict, RegionWords: 1 << 14, Regions: regions}))
	}
}

// shardedGroup returns a Group factory for the coordinator-plus-shards
// layout of a sharded front-end.
func shardedGroup(shards int, buffered bool) func() *pmem.Group {
	return func() *pmem.Group {
		return shardeddb.NewGroup(shardeddb.GroupConfig{
			Shards: shards, Threads: 1, Mode: pmem.Strict, Buffered: buffered,
		})
	}
}

// onPool lifts a single-pool stale-range declaration to the group form.
func onPool(f func(*pmem.Pool) []pmem.Range) func(*pmem.Group) []pmem.GroupRange {
	return func(g *pmem.Group) []pmem.GroupRange {
		var out []pmem.GroupRange
		for _, r := range f(g.Pool(0)) {
			out = append(out, pmem.GroupRange{Pool: 0, Range: r})
		}
		return out
	}
}

// bulkVal renders the redodb-bulkval workload's value for key i: a
// deterministic pattern whose length varies from 1 byte to a few cache
// lines, so the sweep hits aligned and unaligned bulk records, partial
// head/tail lines and whole non-temporal lines.
func bulkVal(i int) []byte {
	n := 1 + (i*37)%240
	v := make([]byte, n)
	for j := range v {
		v[j] = byte(i + j*13)
	}
	return v
}

// bufferedSyncDepth is the Sync cadence of the buffered sharded workload.
const bufferedSyncDepth = 4

// Runner abstracts "insert key i, then verify after recovery" over the PTMs
// (via a list set) and the KV stores. Fresh constructs or recovers the
// engine over a pool group (single-pool engines use pool 0); a new Runner
// must be used for every recovery so no volatile state leaks across a
// simulated crash.
type Runner struct {
	Fresh  func(g *pmem.Group) // construct engine over the group
	Insert func(i int)         // one durable insert transaction
	Verify func(completed, n int) error
}

// ptmEngine sweeps one of the paper's PTM/PUC constructions through a
// persistent list set: insert key i+1 per transaction, and after recovery
// the set must be a prefix of the workload.
func ptmEngine(eng bench.Engine) Engine {
	return Engine{
		Name:  eng.Name,
		Group: singlePool(2),
		Stale: onPool(eng.StaleRanges),
		Runner: func() *Runner {
			var p ptm.PTM
			set := seqds.ListSet{RootSlot: 0}
			return &Runner{
				Fresh: func(g *pmem.Group) {
					p = eng.NewOnPool(1, g.Pool(0))
					p.Update(0, func(m ptm.Mem) uint64 {
						if m.Load(ptm.RootAddr(0)) == 0 {
							set.Init(m)
						}
						return 0
					})
				},
				Insert: func(i int) {
					p.Update(0, func(m ptm.Mem) uint64 {
						set.Add(m, uint64(i)+1)
						return 0
					})
				},
				Verify: func(completed, n int) error {
					keys := seqds.ReadSlice(p, 0, set.Keys)
					return verifyPrefix(keys, completed, n)
				},
			}
		},
	}
}

// onllEngine sweeps the one-line-log construction through the same list
// set, registered as an ONLL operation.
func onllEngine() Engine {
	return Engine{
		Name:  "ONLL",
		Group: singlePool(1),
		Stale: onPool(onll.StaleRanges),
		Runner: func() *Runner {
			var o *onll.ONLL
			set := seqds.ListSet{RootSlot: 0}
			ops := map[uint16]onll.OpFunc{
				1: func(m ptm.Mem, args []uint64) uint64 {
					if set.Add(m, args[0]) {
						return 1
					}
					return 0
				},
			}
			return &Runner{
				Fresh: func(g *pmem.Group) {
					o = onll.New(g.Pool(0), onll.Config{
						Threads: 1,
						Ops:     ops,
						Init: func(m ptm.Mem, args []uint64) uint64 {
							set.Init(m)
							return 0
						},
					})
				},
				Insert: func(i int) { o.Update(0, 1, uint64(i)+1) },
				Verify: func(completed, n int) error {
					keys := seqds.ReadSlice(o, 0, set.Keys)
					return verifyPrefix(keys, completed, n)
				},
			}
		},
	}
}

// redodbEngine sweeps RedoDB, inserting value(i) under key i. With churn,
// each insert also puts and deletes a scratch key so the sweep crashes
// inside Alloc AND Free paths. Verify audits the allocator against the
// reachable blocks (AllocReconcile): the post-crash reachability pass must
// have left zero leaks at every injection point.
func redodbEngine(name string, value func(i int) []byte, churn bool) Engine {
	return Engine{
		Name:       name,
		Group:      singlePool(2),
		Stale:      onPool(redodb.StaleRanges),
		BulkStores: true,
		Runner: func() *Runner {
			var db *redodb.DB
			var s *redodb.Session
			return &Runner{
				Fresh: func(g *pmem.Group) {
					db = redodb.Open(g.Pool(0), redodb.Options{Threads: 1})
					s = db.Session(0)
				},
				Insert: func(i int) {
					s.Put(wkey("k", i), value(i))
					if churn {
						s.Put([]byte("scratch"), bulkVal(i))
						s.Delete([]byte("scratch"))
					}
				},
				Verify: func(completed, n int) error {
					if err := verifyPuts(s.Get, value, completed); err != nil {
						return err
					}
					return db.AllocReconcile()
				},
			}
		},
	}
}

// oneByte is the one-byte value the key-value workloads put under key i.
func oneByte(i int) []byte { return []byte{byte(i)} }

// verifyPuts checks that every completed put of a key-value workload
// survived with its value.
func verifyPuts(get func([]byte) ([]byte, bool), value func(int) []byte, completed int) error {
	for i := 0; i < completed; i++ {
		if v, ok := get(wkey("k", i)); !ok || !bytes.Equal(v, value(i)) {
			return fmt.Errorf("completed put %d lost (present=%v, value %x, want %x)", i, ok, v, value(i))
		}
	}
	return nil
}

// rockssimEngine sweeps the RocksDB-on-PM baseline store.
func rockssimEngine() Engine {
	return Engine{
		Name:  "rockssim",
		Group: singlePool(3),
		Stale: onPool(rockssim.StaleRanges),
		Runner: func() *Runner {
			var db *rockssim.DB
			return &Runner{
				Fresh: func(g *pmem.Group) { db = rockssim.Open(g.Pool(0), rockssim.Options{}) },
				Insert: func(i int) {
					db.Put(wkey("k", i), oneByte(i))
				},
				Verify: func(completed, n int) error { return verifyPuts(db.Get, oneByte, completed) },
			}
		},
	}
}

// wkey renders a workload key: the prefix, then i in three digits.
func wkey(prefix string, i int) []byte { return []byte(fmt.Sprintf("%s%03d", prefix, i)) }

// wval is the value byte a workload writes at position j of its i-th write
// group: byte(i), inverted at odd positions so swapped keys show.
func wval(j, i int) byte { return byte(i) ^ byte(j%2*0xff) }

// shardPrefixes are the sharded workloads' key prefixes; 'a' and 'b' keys
// scatter to different shards.
var shardPrefixes = []string{"a", "b"}

// shardedPut writes insert i of the sharded workloads: one CROSS-SHARD
// batch of two keys, so a crash point inside the coordinator protocol
// (publish intent, per-shard applies, complete) is exercised at every
// sweep step.
func shardedPut(s *shardeddb.Session, i int) {
	b := &shardeddb.WriteBatch{}
	for j, p := range shardPrefixes {
		b.Put(wkey(p, i), []byte{wval(j, i)})
	}
	s.Write(b)
}

// shardedEngine is the sharded front-end over shards shards, synchronous or
// buffered. The buffered engine adds a Sync barrier every
// bufferedSyncDepth batches; batches above the last completed Sync may
// individually survive or vanish (a-keys and b-keys scatter independently,
// so the GLOBAL insert order is not a single shard's epoch order).
func shardedEngine(shards int, buffered bool) Engine {
	name := fmt.Sprintf("shardeddb-%d", shards)
	if buffered {
		name = fmt.Sprintf("shardeddb-buffered-%d", shards)
	}
	return Engine{
		Name:       name,
		Group:      shardedGroup(shards, buffered),
		Stale:      shardeddb.StaleRanges,
		BulkStores: true,
		Buffered:   buffered,
		Runner: func() *Runner {
			var sdb *shardeddb.DB
			var s *shardeddb.Session
			return &Runner{
				Fresh: func(g *pmem.Group) {
					sdb = shardeddb.Open(g, shardeddb.Options{Threads: 1, Buffered: buffered, PersistEvery: -1})
					s = sdb.Session(0)
				},
				Insert: func(i int) {
					shardedPut(s, i)
					if buffered && (i+1)%bufferedSyncDepth == 0 {
						s.Sync()
					}
				},
				Verify: func(completed, n int) error {
					durable := completed
					if buffered {
						durable = bufferedSyncDepth * (completed / bufferedSyncDepth)
					}
					if err := verifyGroups(s.Get, shardPrefixes, completed, n, durable, !buffered); err != nil {
						return err
					}
					return sdb.AllocReconcile()
				},
			}
		},
	}
}

// verifyGroups is the all-or-nothing check after recovery of a workload
// whose i-th write puts wkey(p, i) for every prefix p: every write survived
// whole with its values or vanished whole, every write below durable
// survived, no more survived than writes ran, and with prefix the survivors
// are a prefix of the write order.
func verifyGroups(get func([]byte) ([]byte, bool), prefixes []string, completed, n, durable int, prefix bool) error {
	applied, gap := 0, -1
	for i := 0; i < n; i++ {
		present := 0
		for j, p := range prefixes {
			if v, ok := get(wkey(p, i)); ok {
				if v[0] != wval(j, i) {
					return fmt.Errorf("write %d recovered %s with wrong value %x", i, wkey(p, i), v)
				}
				present++
			}
		}
		switch {
		case present != 0 && present != len(prefixes):
			return fmt.Errorf("write %d recovered torn (%d of %d keys)", i, present, len(prefixes))
		case present == 0 && i < durable:
			return fmt.Errorf("write %d lost below the durable point %d", i, durable)
		case present == 0:
			if gap < 0 {
				gap = i
			}
			continue
		case prefix && gap >= 0:
			return fmt.Errorf("write %d survived but %d did not", i, gap)
		}
		applied++
	}
	if applied > completed+1 {
		return fmt.Errorf("%d writes survived but only %d ran", applied, completed+1)
	}
	return nil
}

// bufferedEngine is RedoDB under group commit at batch depth depth: inserts
// commit into the in-flight epoch and the runner seals (Persist) every
// depth-th insert, so the sweep's crash points land before, inside and
// after every epoch boundary. The durability contract is weaker than the
// synchronous engines' — a crash may lose the un-synced commit-order
// SUFFIX — so Verify asserts the buffered form: the surviving keys are a
// contiguous prefix (never a gap), at least every key covered by a
// completed Persist survived, and nothing from the future appeared.
func bufferedEngine(depth int) Engine {
	return Engine{
		Name: fmt.Sprintf("redodb-buffered-d%d", depth),
		// Buffered mode needs a third replica: one pinned by the persister,
		// one carrying curComb, one free for writers.
		Group:      singlePool(3),
		Stale:      onPool(redodb.StaleRanges),
		BulkStores: true,
		Buffered:   true,
		Runner: func() *Runner {
			var db *redodb.DB
			var s *redodb.Session
			return &Runner{
				Fresh: func(g *pmem.Group) {
					db = redodb.Open(g.Pool(0), redodb.Options{Threads: 1, Buffered: true})
					s = db.Session(0)
				},
				Insert: func(i int) {
					s.Put(wkey("k", i), oneByte(i))
					if (i+1)%depth == 0 {
						db.Persist()
					}
				},
				Verify: func(completed, n int) error {
					// Suffix loss only: the survivors are a prefix holding
					// at least every key a completed Persist covered.
					if err := verifyGroups(s.Get, []string{"k"}, completed, n, depth*(completed/depth), true); err != nil {
						return err
					}
					return db.AllocReconcile()
				},
			}
		},
	}
}

// verifyPrefix asserts keys is 1..k for some completed <= k <= n.
func verifyPrefix(keys []uint64, completed, n int) error {
	if len(keys) < completed || len(keys) > n {
		return fmt.Errorf("recovered %d keys, completed %d of %d", len(keys), completed, n)
	}
	for i, k := range keys {
		if k != uint64(i)+1 {
			return fmt.Errorf("recovered state not a prefix at %d", i)
		}
	}
	return nil
}
