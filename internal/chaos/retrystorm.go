package chaos

import (
	"fmt"
	"math/rand"

	"repro/internal/pmem"
	"repro/internal/redodb"
	"repro/internal/shardeddb"
)

// PointError is a sweep failure pinned to its reproduction coordinates: the
// engine, the RNG seed, and the crash point (or pair) that exposed it. The
// sweeps are deterministic in (engine, seed, ops, stride), so the triple is
// everything a re-run needs; cmd/crashcheck formats it into a command line.
type PointError struct {
	Engine      string
	Adversarial bool
	Seed        int64
	First       int64 // workload crash point (PM instruction count)
	Second      int64 // recovery crash point (nested sweeps only; 0 otherwise)
	Err         error
}

func (e *PointError) Error() string {
	model := "conservative"
	if e.Adversarial {
		model = "adversarial"
	}
	if e.Second != 0 {
		return fmt.Sprintf("engine %s seed %d %s crash pair (%d,%d): %v",
			e.Engine, e.Seed, model, e.First, e.Second, e.Err)
	}
	return fmt.Sprintf("engine %s seed %d %s crash point %d: %v",
		e.Engine, e.Seed, model, e.First, e.Err)
}

func (e *PointError) Unwrap() error { return e.Err }

// pointErr wraps err with its reproduction coordinates.
func pointErr(name string, o Options, first, second int64, err error) error {
	return &PointError{
		Engine: name, Adversarial: o.Adversarial, Seed: o.Seed,
		First: first, Second: second, Err: err,
	}
}

// StormEngine is one retry-storm sweep target: a row of the storm engine
// table, looked up by name like Engine.
type StormEngine struct {
	Name string
	// Group allocates the strict-mode pool group the engine runs on.
	Group func() *pmem.Group
	// Runner builds the deterministic retry-storm workload driver.
	Runner func() *StormRunner
}

// StormEngines lists the retry-storm sweep targets: the detectable session
// API on RedoDB, where each request is a detectable single-key batch, and on
// the sharded front-end at the acceptance shard counts, where each request
// is a detectable two-key batch whose prefixes scatter across shards, so
// every crash point inside the coordinator's intent protocol is exercised
// with a receipt in flight.
func StormEngines() []StormEngine {
	out := []StormEngine{stormEngine("detect-redodb", singlePool(2), func(g *pmem.Group) detectSession {
		return redodb.Open(g.Pool(0), redodb.Options{Threads: 1}).Session(0)
	}, "storm")}
	for _, shards := range []int{1, 8} {
		out = append(out, stormEngine(fmt.Sprintf("detect-shardeddb-%d", shards), shardedGroup(shards, false),
			func(g *pmem.Group) detectSession {
				return shardeddb.Open(g, shardeddb.Options{Threads: 1}).Session(0)
			}, "a-storm", "b-storm"))
	}
	return out
}

// LookupStorm returns the storm engine table row named name.
func LookupStorm(name string) (StormEngine, error) {
	return lookup(StormEngines(), func(e StormEngine) string { return e.Name }, "retry-storm engine", name)
}

// stormAckEvery is the acking cadence of the storm workload: every fifth
// request the client advances its watermark, so every sweep also crosses
// receipt truncation at many crash points.
const stormAckEvery = 5

// stormClient is the persistent client id the storm workload runs under.
const stormClient = 42

// StormRunner drives one detectable engine through the retry-storm protocol:
// issue requests tagged with strictly increasing seqs, crash anywhere, then
// probe WasApplied and retry. All callbacks speak in request seqs (1-based).
type StormRunner struct {
	Fresh      func(g *pmem.Group)                  // open or recover the engine
	Apply      func(seq uint64) bool                // issue request seq; reports applied (false: dedup)
	Ack        func(upto uint64)                    // advance the acked watermark
	WasApplied func(seq uint64) bool                // durable receipt probe
	Verify     func(seq uint64, applied bool) error // effect present iff applied, never torn
	Stats      func() (receipts, maxSeq, acked uint64)
}

// detectSession is the detectable session API RedoDB and the sharded
// front-end share (one WriteBatch, one WriteOptions).
type detectSession interface {
	Apply(*redodb.WriteBatch, redodb.WriteOptions) (bool, error)
	AckApplied(client, upto uint64)
	WasApplied(client, seq uint64) bool
	Get(key []byte) ([]byte, bool)
	DetectStats(client uint64) (receipts, maxSeq, acked uint64)
}

// stormEngine runs the storm workload on the store open returns: request
// seq is one detectable batch putting wkey(p, seq) for each prefix p.
func stormEngine(name string, group func() *pmem.Group, open func(*pmem.Group) detectSession, prefixes ...string) StormEngine {
	return StormEngine{Name: name, Group: group, Runner: func() *StormRunner {
		var s detectSession
		return &StormRunner{
			Fresh: func(g *pmem.Group) { s = open(g) },
			Apply: func(seq uint64) bool {
				b := &redodb.WriteBatch{}
				for j, p := range prefixes {
					b.Put(wkey(p, int(seq)), []byte{wval(j, int(seq))})
				}
				applied, err := s.Apply(b, redodb.WriteOptions{Client: stormClient, Seq: seq})
				if err != nil {
					panic(err)
				}
				return applied
			},
			Ack:        func(upto uint64) { s.AckApplied(stormClient, upto) },
			WasApplied: func(seq uint64) bool { return s.WasApplied(stormClient, seq) },
			Verify: func(seq uint64, applied bool) error {
				for j, p := range prefixes {
					v, ok := s.Get(wkey(p, int(seq)))
					if ok != applied {
						return fmt.Errorf("request %d key %s: receipt says applied=%v but present=%v (torn if keys disagree)",
							seq, wkey(p, int(seq)), applied, ok)
					}
					if applied && v[0] != wval(j, int(seq)) {
						return fmt.Errorf("request %d key %s recovered with wrong value %x", seq, wkey(p, int(seq)), v)
					}
				}
				return nil
			},
			Stats: func() (uint64, uint64, uint64) { return s.DetectStats(stormClient) },
		}
	}}
}

// RetryStorm is the exactly-once crash sweep: run the detectable workload
// with a power failure injected at successive instruction boundaries, crash,
// recover, and run the client's recovery protocol — probe WasApplied for
// every issued request, verify the probe against the actual state (an acked
// or completed request must survive; an unacked one must be fully absent or
// detectably applied, never torn and never duplicated), then retry every
// request and assert the dedup table skips exactly the receipted ones. The
// final receipt count is the exactly-once witness: one receipt per request,
// no matter where the crash landed. Returns the number of crash points
// explored.
func RetryStorm(name string, o Options) (int, error) {
	e, err := LookupStorm(name)
	if err != nil {
		return 0, err
	}
	o = o.withDefaults()
	stride := o.Stride
	if stride <= 0 {
		stride = 7
	}
	rng := rand.New(rand.NewSource(o.Seed))
	crashes := 0
	for fail := int64(1); ; fail += stride {
		crashed, err := stormPoint(e, o, rng, fail)
		if err != nil {
			return crashes, pointErr(name, o, fail, 0, err)
		}
		if !crashed {
			return crashes, nil
		}
		crashes++
	}
}

// CheckStormPoint exercises exactly one retry-storm crash point — the
// reproduction entry for a failing (seed, engine, point) triple.
func CheckStormPoint(name string, o Options, fail int64) error {
	if fail <= 0 {
		return nil
	}
	e, err := LookupStorm(name)
	if err != nil {
		return err
	}
	o = o.withDefaults()
	rng := rand.New(rand.NewSource(o.Seed))
	if _, err := stormPoint(e, o, rng, fail); err != nil {
		return pointErr(name, o, fail, 0, err)
	}
	return nil
}

// stormPoint runs the storm workload with a failure armed fail instructions
// in, and — if it fired — recovers and runs the full retry protocol.
func stormPoint(e StormEngine, o Options, rng *rand.Rand, fail int64) (crashed bool, err error) {
	g, r := e.Group(), e.Runner()
	completed := 0
	crashed, cerr := run(func() {
		r.Fresh(g)
		g.InjectFailure(fail)
		for seq := uint64(1); seq <= uint64(o.Ops); seq++ {
			r.Apply(seq)
			completed++
			if seq%stormAckEvery == 0 {
				r.Ack(seq)
			}
		}
	})
	g.InjectFailure(-1)
	if cerr != nil {
		return crashed, fmt.Errorf("unexpected corruption report: %w", cerr)
	}
	if !crashed {
		if completed != o.Ops {
			return false, fmt.Errorf("no crash but only %d/%d requests completed", completed, o.Ops)
		}
		return false, nil
	}
	crash(g, o.Adversarial, rng)

	r2 := e.Runner()
	if _, cerr := run(func() { r2.Fresh(g) }); cerr != nil {
		return true, fmt.Errorf("recovery reported corruption: %w", cerr)
	}

	// Probe phase: the receipt table must agree with the recovered state for
	// every request — completed requests are receipted, the in-flight one is
	// either fully in (receipted) or fully out, later seqs were never issued.
	for seq := uint64(1); seq <= uint64(o.Ops); seq++ {
		probe := r2.WasApplied(seq)
		if int(seq) <= completed && !probe {
			return true, fmt.Errorf("completed request %d lost its receipt", seq)
		}
		if int(seq) > completed+1 && probe {
			return true, fmt.Errorf("unissued request %d reports applied", seq)
		}
		if err := r2.Verify(seq, probe); err != nil {
			return true, err
		}
	}

	// Retry storm: re-issue every request. Exactly the unreceipted ones may
	// apply; a receipted one applying again is the duplicate this subsystem
	// exists to rule out.
	for seq := uint64(1); seq <= uint64(o.Ops); seq++ {
		pre := r2.WasApplied(seq)
		appliedNow := r2.Apply(seq)
		if appliedNow == pre {
			return true, fmt.Errorf("retry of request %d applied=%v with prior receipt=%v",
				seq, appliedNow, pre)
		}
	}
	for seq := uint64(1); seq <= uint64(o.Ops); seq++ {
		if err := r2.Verify(seq, true); err != nil {
			return true, fmt.Errorf("after retries: %w", err)
		}
	}
	receipts, maxSeq, _ := r2.Stats()
	if receipts != uint64(o.Ops) || maxSeq != uint64(o.Ops) {
		return true, fmt.Errorf("exactly-once witness broken: %d receipts, max seq %d, want %d each",
			receipts, maxSeq, o.Ops)
	}
	return true, nil
}
