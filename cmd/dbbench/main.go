// Command dbbench regenerates the RedoDB vs RocksDB figures (7–9) with
// db_bench-style workloads on the emulated persistent memory: readrandom,
// readwhilewriting, overwrite, fillrandom, plus the memory-usage and
// recovery-time measurements.
//
//	dbbench -fig fig7 -keys 100000
//	dbbench -fig fig8
//	dbbench -fig fig9 -threads 1,2,4,8
//	dbbench -fig sharding -shards 1,2,4,8
//	dbbench -fig sharding -json sharding.json -shards 1,8 -keys 10000 -secs 0.25
//	dbbench -fig valuesize -json valuesize.json -keys 5000 -secs 0.25
//	dbbench -fig detect -json detect.json -keys 10000 -secs 0.25
//	dbbench -fig buffered -json buffered.json -keys 10000 -secs 0.5 -threads 1
//	dbbench -fig space -json space.json -keys 2000 -threads 1
//	dbbench -trace trace.json -engine Redo-PTM -ops 64
//
// -json writes one figure's cells as bench entries instead of printing a
// figure: sharding (fillrandom/readrandom per -shards count), valuesize
// (bulk vs per-word logging at 64/256/1024 B values), detect (plain vs
// detectable Put), buffered (sync baseline vs group commit at depths
// 1/8/64) or space (NVMM bytes per key at 100 B/1 KiB/8 KiB values). Each
// runs at the largest -threads count. The claims these cells back are
// asserted live by internal/bench's TestTrajectoryClaims; the checked-in
// BENCH_pr*.json files are frozen history.
//
// -trace runs a bounded single-threaded workload on one PTM engine with
// event tracing attached (including a traced recovery pass), writes the
// captured trace as JSON for cmd/obsdump, verifies it with the dynamic
// ordering checker, and prints the op/commit/recovery latency histograms.
//
// The paper ran 10^6 and 10^7 keys (16-byte keys, 100-byte values) on real
// Optane; -keys scales the database so the suite completes on a laptop.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/pmem"
)

func main() {
	var (
		fig      = flag.String("fig", "all", "fig7 | fig8 | fig9 | sharding | all; with -json: sharding | valuesize | detect | buffered | space")
		keys     = flag.Uint64("keys", 100_000, "distinct keys (paper: 1e6 and 1e7)")
		threads  = flag.String("threads", "1,2,4,8", "comma-separated thread counts")
		secs     = flag.Float64("secs", 1.0, "seconds per data point (paper: 20)")
		optane   = flag.Bool("optane", true, "inject Optane-like pwb/fence latencies")
		shards   = flag.String("shards", "1,2,4,8", "comma-separated shard counts for the sharding figure")
		jsonPath = flag.String("json", "", "write the -fig cells as bench entries to this file and exit")
		trace    = flag.String("trace", "", "write a traced engine run to this file and exit")
		engine   = flag.String("engine", "Redo-PTM", "PTM engine for -trace (see ptmbench for names)")
		ops      = flag.Int("ops", 64, "update transactions for -trace")
	)
	flag.Parse()

	if *trace != "" {
		res, err := bench.TraceRun(*engine, *ops)
		if err != nil {
			fmt.Fprintf(os.Stderr, "trace run: %v\n", err)
			os.Exit(1)
		}
		if err := res.Trace.WriteFile(*trace); err != nil {
			fmt.Fprintf(os.Stderr, "writing %s: %v\n", *trace, err)
			os.Exit(1)
		}
		fmt.Printf("# %s — %d ops, trace written to %s\n", res.Engine, res.Ops, *trace)
		res.Trace.Summary(os.Stdout)
		snaps := res.Lat.Snapshot()
		for _, phase := range []string{"op", "commit", "recovery"} {
			fmt.Println(snaps[phase].Fprint(phase))
		}
		if len(res.Violations) > 0 {
			fmt.Printf("ordering violations: %d\n", len(res.Violations))
			for _, v := range res.Violations {
				fmt.Println("  " + v.String())
			}
			os.Exit(1)
		}
		fmt.Println("ordering check: clean")
		return
	}

	parseInts := func(s, what string) []int {
		var out []int
		for _, part := range strings.Split(s, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || n <= 0 {
				fmt.Fprintf(os.Stderr, "bad %s %q\n", what, part)
				os.Exit(2)
			}
			out = append(out, n)
		}
		return out
	}
	ts := parseInts(*threads, "thread count")
	sh := parseInts(*shards, "shard count")
	// Size regions for ~40 words per pair plus headroom; WAL/journal and
	// checkpoint regions use the same size. The value-size and space cells
	// grow their own regions to fit their payloads.
	words := uint64(1) << 16
	for words < *keys*64+(1<<16) {
		words *= 2
	}
	cfg := bench.DBConfig{
		Keys:    *keys,
		Threads: ts,
		Dur:     time.Duration(*secs * float64(time.Second)),
		Words:   words,
		Out:     os.Stdout,
	}
	if *optane {
		cfg.Lat = pmem.DefaultOptane
	}
	if *jsonPath != "" {
		// One bounded cell per workload at the largest thread count.
		t := ts[len(ts)-1]
		var entries []bench.BenchEntry
		switch *fig {
		case "sharding":
			entries = bench.ShardingEntries(cfg, sh, t)
		case "valuesize":
			entries = bench.ValueSizeEntries(cfg, t)
		case "detect":
			entries = bench.DetectEntries(cfg, t)
		case "buffered":
			entries = bench.BufferedEntries(cfg, t)
		case "space":
			entries = bench.SpaceEntries(cfg, t)
		default:
			fmt.Fprintf(os.Stderr, "-json needs -fig sharding | valuesize | detect | buffered | space, not %q\n", *fig)
			os.Exit(2)
		}
		if err := bench.WriteBenchJSON(*jsonPath, entries); err != nil {
			fmt.Fprintf(os.Stderr, "writing %s: %v\n", *jsonPath, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %d entries to %s\n", len(entries), *jsonPath)
		return
	}
	switch *fig {
	case "fig7":
		bench.Fig7(cfg)
	case "fig8":
		bench.Fig8(cfg)
	case "fig9":
		bench.Fig9(cfg)
	case "sharding":
		bench.FigSharding(cfg, sh)
	case "all":
		bench.Fig7(cfg)
		bench.Fig8(cfg)
		bench.Fig9(cfg)
		bench.FigSharding(cfg, sh)
	default:
		fmt.Fprintf(os.Stderr, "unknown figure %q (valuesize, detect, buffered and space need -json)\n", *fig)
		os.Exit(2)
	}
}
