// Command crashcheck validates durable linearizability of every
// construction by systematic crash-point exploration: it re-runs a
// deterministic insert workload, injecting a simulated power failure at
// successive persistent-memory instruction boundaries, and after each crash
// verifies that recovery yields a consistent state containing every
// completed transaction. Both the conservative model (unflushed lines are
// lost) and the adversarial model (unflushed dirty lines may spuriously
// persist with word-granularity tearing, as with cache evictions) are
// exercised.
//
// Beyond the single-crash sweep, -nested explores *pairs* of crash points —
// crash the workload, then crash recovery itself at every instruction
// boundary, recover fully, verify — and -corrupt flips bits in the spans
// each engine declares unreachable from committed state, asserting recovery
// either succeeds with a correct answer or fails with a typed corruption
// error, never a panic or a silent wrong answer. -retrystorm sweeps the
// detectable-operation engines: after every crash the client probes
// WasApplied and retries every request, and the sweep asserts each acked
// request survived exactly once and each unacked one is absent or detectably
// applied — never duplicated.
//
// Every sweep is deterministic in (engine, seed, ops, stride): on failure
// crashcheck prints the failing (seed, engine, crash-point) triple and a
// single command that reproduces it.
//
//	crashcheck                        # all engines, single-crash sweep
//	crashcheck -engine CX-PTM -ops 40 -stride 3
//	crashcheck -nested                # crash-during-recovery pairs
//	crashcheck -corrupt -seed 7       # bit flips in stale spans
//	crashcheck -retrystorm            # exactly-once retry sweeps
//	crashcheck -retrystorm -engine detect-shardeddb-8 -point 137
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/chaos"
)

func main() {
	var (
		engine     = flag.String("engine", "all", "engine name(s, comma-separated) or 'all'")
		ops        = flag.Int("ops", 25, "insert transactions per crash run")
		stride     = flag.Int64("stride", 0, "crash-point stride in PM instructions (0 = auto)")
		stride2    = flag.Int64("stride2", 1, "recovery crash-point stride for -nested")
		nested     = flag.Bool("nested", false, "sweep (first, second) crash-point pairs: crash during recovery")
		corrupt    = flag.Bool("corrupt", false, "flip bits in stale spans after each crash")
		retrystorm = flag.Bool("retrystorm", false, "sweep detectable engines: crash, probe WasApplied, retry, assert exactly-once")
		seed       = flag.Int64("seed", 2020, "RNG seed for adversarial tearing and bit-flip placement")
		point      = flag.Int64("point", 0, "reproduce a single -retrystorm crash point instead of sweeping")
	)
	flag.Parse()

	mode := ""
	switch {
	case *nested:
		mode = "-nested"
	case *corrupt:
		mode = "-corrupt"
	case *retrystorm:
		mode = "-retrystorm"
	}
	var names []string
	var lookup func(name string) error
	if *retrystorm {
		for _, e := range chaos.StormEngines() {
			names = append(names, e.Name)
		}
		lookup = func(name string) error { _, err := chaos.LookupStorm(name); return err }
	} else {
		for _, e := range chaos.Engines() {
			names = append(names, e.Name)
		}
		lookup = func(name string) error { _, err := chaos.Lookup(name); return err }
	}
	if *engine != "all" {
		names = strings.Split(*engine, ",")
		// Reject every unknown name before the first sweep starts.
		for _, name := range names {
			if err := lookup(name); err != nil {
				fmt.Fprintln(os.Stderr, "crashcheck:", err)
				os.Exit(2)
			}
		}
	}
	failed := false
	report := func(name, label string, err error) {
		fmt.Printf("%-20s %-13s FAIL: %v\n", name, label, err)
		var pe *chaos.PointError
		if errors.As(err, &pe) {
			pair := fmt.Sprintf("%d", pe.First)
			if pe.Second != 0 {
				pair = fmt.Sprintf("(%d,%d)", pe.First, pe.Second)
			}
			fmt.Printf("  failing triple: seed=%d engine=%s crash-point=%s\n", pe.Seed, pe.Engine, pair)
			cmd := fmt.Sprintf("go run ./cmd/crashcheck %s -engine %s -ops %d -stride %d -seed %d",
				mode, pe.Engine, *ops, *stride, pe.Seed)
			if mode == "-nested" {
				cmd += fmt.Sprintf(" -stride2 %d", *stride2)
			}
			if mode == "-retrystorm" {
				cmd += fmt.Sprintf(" -point %d", pe.First)
			}
			fmt.Printf("  re-run: %s\n", cmd)
		}
		failed = true
	}
	for _, name := range names {
		for _, adversarial := range []bool{false, true} {
			label := "conservative"
			if adversarial {
				label = "adversarial"
			}
			opts := chaos.Options{
				Ops:         *ops,
				Stride:      *stride,
				Stride2:     *stride2,
				Adversarial: adversarial,
				Seed:        *seed,
			}
			switch {
			case *retrystorm && *point > 0:
				if err := chaos.CheckStormPoint(name, opts, *point); err != nil {
					report(name, label, err)
					continue
				}
				fmt.Printf("%-20s %-13s OK (crash point %d recovered exactly-once)\n",
					name, label, *point)
			case *retrystorm:
				crashes, err := chaos.RetryStorm(name, opts)
				if err != nil {
					report(name, label, err)
					continue
				}
				fmt.Printf("%-20s %-13s OK (%d crash points, every request exactly once)\n",
					name, label, crashes)
			case *nested:
				pairs, err := chaos.NestedSweep(name, opts)
				if err != nil {
					report(name, label, err)
					continue
				}
				fmt.Printf("%-20s %-13s OK (%d nested crash pairs, all recovered consistently)\n",
					name, label, pairs)
			case *corrupt:
				flips, err := chaos.CorruptionSweep(name, opts)
				if err != nil {
					report(name, label, err)
					continue
				}
				fmt.Printf("%-20s %-13s OK (%d bit flips, none panicked or corrupted an answer)\n",
					name, label, flips)
			default:
				crashes, err := chaos.Sweep(name, opts)
				if err != nil {
					report(name, label, err)
					continue
				}
				fmt.Printf("%-20s %-13s OK (%d crash points, all recovered consistently)\n",
					name, label, crashes)
			}
		}
	}
	if failed {
		os.Exit(1)
	}
}
