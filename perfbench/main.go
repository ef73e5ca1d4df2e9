// Command perfbench is the repository's benchmark. One invocation runs one
// named workload with one seed in a single process, checks every output
// against the benchmark's own record of what was written, and prints one
// JSON result line: the end-to-end metrics, or with -trace 1 the per-layer
// metrics of a separate instrumented run.
//
//	bash perfbench/run.sh --workload zipf-rw --seed 7 --seconds 10 --trace 0
//
// The program is measured from outside: the benchmark times calls into the
// public functions of internal/redodb, internal/shardeddb, internal/server
// and internal/load, and reads the counters they already expose. See
// README.md for the workloads, the metrics and the noise they avoid.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// config is what every workload receives.
type config struct {
	seed    int64
	seconds time.Duration
	trace   bool
}

// checks counts operations and the ones whose output was wrong. Each
// worker goroutine keeps its own and the workload merges them.
type checks struct {
	attempted int64
	failed    int64
	errs      []string // first few failures, for standard error
}

// fail counts one operation whose output was wrong.
func (c *checks) fail(format string, args ...any) {
	c.failed++
	if len(c.errs) < 10 {
		c.errs = append(c.errs, fmt.Sprintf(format, args...))
	}
}

func (c *checks) merge(d *checks) {
	c.attempted += d.attempted
	c.failed += d.failed
	for _, e := range d.errs {
		if len(c.errs) < 10 {
			c.errs = append(c.errs, e)
		}
	}
}

// outcome accumulates one run's measurements and its failed checks.
type outcome struct {
	checks
	e2e endToEnd
	lay layers
}

func newOutcome(cfg config) *outcome {
	o := &outcome{}
	if cfg.trace {
		o.lay.tally = newTally()
	} else {
		o.lay.tally = &tally{}
	}
	return o
}

var workloads = map[string]func(config) *outcome{
	"fill":       runFill,
	"zipf-rw":    runZipfRW,
	"net-ycsb-a": runNetYCSBA,
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: fill, zipf-rw or net-ycsb-a")
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Int("seconds", 10, "length of the timed phase in seconds")
		trace   = flag.Int("trace", 0, "1 prints the per-layer metrics of an instrumented run")
	)
	flag.Parse()
	run, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "perfbench: need --workload %v, --seconds > 0 and --trace 0 or 1\n", names)
		os.Exit(2)
	}
	cfg := config{seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1}
	o := run(cfg)
	if err := o.lay.tally.err(); err != nil {
		o.fail("%v", err)
	}
	res := result{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed}
	if cfg.trace {
		// The end-to-end figures of the instrumented run, beside the
		// untraced run's, give the tracing overhead.
		diag := result{Metrics: o.e2e.metrics()}
		fmt.Fprintln(os.Stderr, "perfbench: end-to-end figures under tracing:", diag.JSON())
		res.Metrics = o.lay.metrics()
	} else {
		res.Metrics = o.e2e.metrics()
	}
	for _, e := range o.errs {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", e)
	}
	fmt.Println(res.JSON())
	if !res.Correct {
		os.Exit(1)
	}
}

// parallel runs step(0) ... step(n-1) concurrently and waits for them:
// one round.
func parallel(n int, step func(w int)) {
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			step(w)
		}(w)
	}
	wg.Wait()
}

// runRounds runs rounds of step, at least one, until d has been spent
// inside rounds, calling between with each round's duration while every
// worker is stopped.
func runRounds(n int, d time.Duration, step func(w int), between func(time.Duration)) {
	for spent := time.Duration(0); spent < d || spent == 0; {
		start := time.Now()
		parallel(n, step)
		round := time.Since(start)
		spent += round
		between(round)
	}
}
