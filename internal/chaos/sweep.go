package chaos

import (
	"fmt"
	"math/rand"

	"repro/internal/pmem"
)

// Options parameterizes a sweep.
type Options struct {
	// Ops is the number of insert transactions per crash run (default 25).
	Ops int
	// Stride is the spacing, in persistent-memory instructions, between
	// successive first crash points. Zero or negative selects the default:
	// 7 for the single-crash and corruption sweeps; for the nested sweep
	// the workload's event count is measured and the stride chosen so that
	// about 256 first points are explored.
	Stride int64
	// Stride2 is the spacing between second (mid-recovery) crash points in
	// the nested sweep (default 1: every recovery instruction boundary).
	Stride2 int64
	// Adversarial selects the crash model: false loses every unflushed
	// line (conservative), true additionally lets unflushed dirty lines
	// spuriously persist with word-granularity tearing (cache evictions).
	Adversarial bool
	// Seed seeds the deterministic RNG driving adversarial tearing and
	// bit-flip placement (default 2020).
	Seed int64
	// Flips is the number of bit flips tried per crash point in the
	// corruption sweep (default 4).
	Flips int
}

func (o Options) withDefaults() Options {
	if o.Ops <= 0 {
		o.Ops = 25
	}
	if o.Seed == 0 {
		o.Seed = 2020
	}
	if o.Flips <= 0 {
		o.Flips = 4
	}
	return o
}

// nestedFirstPoints is the target number of first crash points the nested
// sweep explores when no stride is given.
const nestedFirstPoints = 256

func crash(g *pmem.Group, adversarial bool, rng *rand.Rand) {
	if adversarial {
		g.Crash(pmem.CrashAdversarial, rng)
	} else {
		g.Crash(pmem.CrashConservative, nil)
	}
}

// run executes fn, translating the two expected panics: a simulated power
// failure sets crashed, a typed corruption report is returned as cerr.
// Anything else propagates — a sweep must never swallow a real bug.
func run(fn func()) (crashed bool, cerr *pmem.CorruptionError) {
	defer func() {
		rec := recover()
		if rec == nil {
			return
		}
		if rec == pmem.ErrSimulatedPowerFailure {
			crashed = true
			return
		}
		if ce, ok := pmem.AsCorruption(rec); ok {
			cerr = ce
			return
		}
		panic(rec)
	}()
	fn()
	return
}

// workload recovers (or formats) the engine on pool, arms a failure point
// fail instructions later, and runs the insert workload.
func workload(g *pmem.Group, r *Runner, n int, fail int64) (completed int, crashed bool, err error) {
	crashed, cerr := run(func() {
		r.Fresh(g)
		if fail > 0 {
			g.InjectFailure(fail)
		}
		for i := 0; i < n; i++ {
			r.Insert(i)
			completed++
		}
	})
	if cerr != nil {
		return completed, crashed, fmt.Errorf("unexpected corruption report: %w", cerr)
	}
	return completed, crashed, nil
}

// MeasureEvents counts the persistent-memory events one full un-crashed
// workload issues, including initial formatting: it arms a failure counter
// too large to fire and reads back what remains.
func MeasureEvents(e Engine, ops int) int64 {
	g, r := e.Group(), e.Runner()
	const huge = int64(1) << 60
	r.Fresh(g)
	g.InjectFailure(huge)
	for i := 0; i < ops; i++ {
		r.Insert(i)
	}
	n := huge - g.InjectRemaining()
	g.InjectFailure(-1)
	return n
}

// Sweep is the classic single-crash sweep: run the workload with a failure
// injected at successive instruction boundaries, crash, recover once, and
// verify that every completed transaction survived. Returns the number of
// crash points explored; the sweep ends when the workload outruns the
// failure point.
func Sweep(name string, o Options) (int, error) {
	e, err := Lookup(name)
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
		g := e.Group()
		completed, crashed, err := workload(g, e.Runner(), o.Ops, fail)
		if err != nil {
			return crashes, pointErr(name, o, fail, 0, err)
		}
		if !crashed {
			if completed != o.Ops {
				return crashes, fmt.Errorf("no crash but only %d/%d completed", completed, o.Ops)
			}
			return crashes, nil
		}
		crashes++
		crash(g, o.Adversarial, rng)
		g.InjectFailure(-1)
		r2 := e.Runner()
		if _, cerr := run(func() { r2.Fresh(g) }); cerr != nil {
			return crashes, pointErr(name, o, fail, 0, fmt.Errorf("recovery reported corruption: %w", cerr))
		}
		if err := r2.Verify(completed, o.Ops); err != nil {
			return crashes, pointErr(name, o, fail, 0, err)
		}
	}
}

// NestedSweep explores pairs of crash points in the nested-failure model:
// crash the workload at the first point, then crash *recovery itself* at
// every Stride2-th instruction boundary, recover fully, and verify. The
// final probe of each inner loop — recovery completing with the failure
// point still armed — counts as a pair too: it certifies the recovery path
// was executed end-to-end under the armed counter. Returns the number of
// pairs explored.
func NestedSweep(name string, o Options) (int, error) {
	e, err := Lookup(name)
	if err != nil {
		return 0, err
	}
	o = o.withDefaults()
	stride1 := o.Stride
	if stride1 <= 0 {
		events := MeasureEvents(e, o.Ops)
		// A lean engine (ONLL persists one line per insert) may issue fewer
		// events than the target point count; grow the workload until every
		// instruction boundary still yields enough first points.
		for events < nestedFirstPoints && o.Ops < 1<<12 {
			o.Ops *= 2
			events = MeasureEvents(e, o.Ops)
		}
		stride1 = events / nestedFirstPoints
		if stride1 < 1 {
			stride1 = 1
		}
	}
	stride2 := o.Stride2
	if stride2 <= 0 {
		stride2 = 1
	}
	rng := rand.New(rand.NewSource(o.Seed))
	pairs := 0
	// One scratch group serves every (first, second) pair: the post-crash
	// image is copied into it in place of allocating a fresh clone per pair,
	// which bounds the sweep's memory at two group images regardless of how
	// many thousands of pairs it explores.
	var scratch *pmem.Group
	for first := int64(1); ; first += stride1 {
		g := e.Group()
		completed, crashed, err := workload(g, e.Runner(), o.Ops, first)
		if err != nil {
			return pairs, pointErr(name, o, first, 0, err)
		}
		if !crashed {
			if completed != o.Ops {
				return pairs, fmt.Errorf("no crash but only %d/%d completed", completed, o.Ops)
			}
			return pairs, nil
		}
		crash(g, o.Adversarial, rng)
		for second := int64(1); ; second += stride2 {
			if scratch == nil {
				scratch = g.Clone()
			} else {
				g.CloneInto(scratch)
			}
			pairs++
			done, err := nestedRecover(e, scratch, second, o.Adversarial, rng, completed, o.Ops)
			if err != nil {
				return pairs, pointErr(name, o, first, second, err)
			}
			if done {
				break
			}
		}
	}
}

// nestedRecover arms a second failure point and invokes recovery. If the
// point fires mid-recovery, the pool is crashed again and recovered to
// completion. Either way the final state is verified. done reports that
// recovery ran to completion without firing — the inner sweep is exhausted.
func nestedRecover(e Engine, g *pmem.Group, second int64, adversarial bool, rng *rand.Rand, completed, n int) (done bool, err error) {
	r := e.Runner()
	crashed, cerr := run(func() {
		g.InjectFailure(second)
		r.Fresh(g)
	})
	g.InjectFailure(-1)
	if cerr != nil {
		return false, fmt.Errorf("first recovery reported corruption: %w", cerr)
	}
	if crashed {
		crash(g, adversarial, rng)
		r = e.Runner()
		if _, cerr := run(func() { r.Fresh(g) }); cerr != nil {
			return false, fmt.Errorf("second recovery reported corruption: %w", cerr)
		}
	}
	if err := r.Verify(completed, n); err != nil {
		return false, err
	}
	return !crashed, nil
}

// CheckPair exercises exactly one (first, second) nested crash pair. It is
// the fuzz entry point: FuzzNestedCrashPoint feeds arbitrary pairs here.
// Pairs whose first point the workload outruns are vacuously fine.
func CheckPair(name string, o Options, first, second int64) error {
	if first <= 0 || second <= 0 {
		return nil
	}
	e, err := Lookup(name)
	if err != nil {
		return err
	}
	o = o.withDefaults()
	rng := rand.New(rand.NewSource(o.Seed))
	g := e.Group()
	completed, crashed, err := workload(g, e.Runner(), o.Ops, first)
	if err != nil {
		return err
	}
	if !crashed {
		return nil
	}
	crash(g, o.Adversarial, rng)
	_, err = nestedRecover(e, g, second, o.Adversarial, rng, completed, o.Ops)
	return err
}

// CorruptionSweep flips bits in the spans the engine declares unreachable
// from committed state — stale replicas, log tails, scratch areas — after a
// crash, and asserts that recovery either succeeds with a correct state or
// halts with a typed *pmem.CorruptionError. A panic of any other kind, or a
// successful recovery with a wrong answer, fails the sweep. Returns the
// number of bit flips exercised.
func CorruptionSweep(name string, o Options) (int, error) {
	e, err := Lookup(name)
	if err != nil {
		return 0, err
	}
	o = o.withDefaults()
	stride := o.Stride
	if stride <= 0 {
		stride = 7
	}
	rng := rand.New(rand.NewSource(o.Seed))
	flips := 0
	// As in NestedSweep, one scratch group is reused across every flip
	// experiment instead of cloning per flip.
	var scratch *pmem.Group
	for fail := int64(1); ; fail += stride {
		g := e.Group()
		completed, crashed, err := workload(g, e.Runner(), o.Ops, fail)
		if err != nil {
			return flips, pointErr(name, o, fail, 0, err)
		}
		if !crashed {
			return flips, nil
		}
		crash(g, o.Adversarial, rng)
		g.InjectFailure(-1)
		stale := e.Stale(g)
		var total uint64
		for _, rg := range stale {
			total += rg.Words
		}
		if total == 0 {
			continue // everything durable is reachable; nothing to corrupt
		}
		for k := 0; k < o.Flips; k++ {
			if scratch == nil {
				scratch = g.Clone()
			} else {
				g.CloneInto(scratch)
			}
			pi, region, addr := pickWord(stale, uint64(rng.Int63n(int64(total))))
			scratch.Pool(pi).FlipBit(region, addr, uint(rng.Intn(64)))
			flips++
			r2 := e.Runner()
			crashed2, cerr := run(func() { r2.Fresh(scratch) })
			if crashed2 {
				return flips, pointErr(name, o, fail, 0, fmt.Errorf("flip %d: spurious power failure", k))
			}
			if cerr != nil {
				continue // detected: an acceptable outcome
			}
			if err := r2.Verify(completed, o.Ops); err != nil {
				return flips, pointErr(name, o, fail, 0, fmt.Errorf("flip %d: silent wrong answer: %w", k, err))
			}
		}
	}
}

// pickWord maps a flat index over the concatenated ranges to (pool, region,
// addr).
func pickWord(ranges []pmem.GroupRange, i uint64) (int, int, pmem.Addr) {
	for _, rg := range ranges {
		if i < rg.Words {
			return rg.Pool, rg.Region, rg.Start + i
		}
		i -= rg.Words
	}
	last := ranges[len(ranges)-1]
	return last.Pool, last.Region, last.Start + last.Words - 1
}
