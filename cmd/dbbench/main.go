// Command dbbench regenerates the RedoDB vs RocksDB figures (7–9) with
// db_bench-style workloads on the emulated persistent memory: readrandom,
// readwhilewriting, overwrite, fillrandom, plus the memory-usage and
// recovery-time measurements.
//
//	dbbench -fig fig7 -keys 100000
//	dbbench -fig fig8
//	dbbench -fig fig9 -threads 1,2,4,8
//	dbbench -fig sharding -shards 1,2,4,8
//	dbbench -json BENCH_pr4.json -shards 1,8 -keys 10000 -secs 0.25
//	dbbench -json BENCH_pr5.json -valuesize 64,256,1024 -keys 5000 -secs 0.25
//	dbbench -json BENCH_pr7.json -detect -keys 10000 -secs 0.25
//	dbbench -json BENCH_pr8.json -sync buffered -depth 1,8,64 -keys 10000 -secs 0.25
//	dbbench -json space.json -space 100,1024,8192 -keys 2000
//	dbbench -trace trace.json -engine Redo-PTM -ops 64
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
		fig      = flag.String("fig", "all", "fig7 | fig8 | fig9 | sharding | all")
		keys     = flag.Uint64("keys", 100_000, "distinct keys (paper: 1e6 and 1e7)")
		threads  = flag.String("threads", "1,2,4,8", "comma-separated thread counts")
		secs     = flag.Float64("secs", 1.0, "seconds per data point (paper: 20)")
		optane   = flag.Bool("optane", true, "inject Optane-like pwb/fence latencies")
		shards   = flag.String("shards", "1,2,4,8", "comma-separated shard counts for the sharding figure")
		vsizes   = flag.String("valuesize", "", "comma-separated value sizes in bytes: run the bulk-vs-word fillrandom sweep instead of the sharding cells (with -json)")
		space    = flag.String("space", "", "comma-separated value sizes in bytes: run the arena allocator's bytes-per-key space figure instead of the sharding cells (with -json)")
		detect   = flag.Bool("detect", false, "run the plain-vs-detectable Put overhead cells instead of the sharding cells (with -json)")
		syncMode = flag.String("sync", "", "\"buffered\": run the group-commit fillrandom sweep (sync baseline + one cell per -depth) instead of the sharding cells (with -json)")
		depths   = flag.String("depth", "1,8,64", "comma-separated Sync batch depths for -sync=buffered")
		jsonPath = flag.String("json", "", "write tracked sharded-bench entries to this file and exit")
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
	// checkpoint regions use the same size. The value-size sweep needs
	// room for its largest payload (power-of-two size classes double the
	// worst case) instead of the default 100-byte values.
	perKey := uint64(64)
	if *vsizes != "" {
		for _, v := range parseInts(*vsizes, "value size") {
			if need := uint64(v)/8*4 + 64; need > perKey {
				perKey = need
			}
		}
	}
	if *space != "" {
		for _, v := range parseInts(*space, "value size") {
			if need := uint64(v)/8*4 + 64; need > perKey {
				perKey = need
			}
		}
	}
	words := uint64(1) << 16
	for words < *keys*perKey+(1<<16) {
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
		// Tracked-benchmark mode: persist a trajectory file. With
		// -valuesize, the cells are the bulk-vs-word payload sweep;
		// otherwise the sharded front-end at each shard count. threads is
		// the max of -threads so CI runs stay one bounded cell per
		// workload.
		var entries []bench.BenchEntry
		if *syncMode != "" {
			if *syncMode != "buffered" {
				fmt.Fprintf(os.Stderr, "unknown -sync mode %q (only \"buffered\")\n", *syncMode)
				os.Exit(2)
			}
			entries = bench.BufferedEntries(cfg, ts[len(ts)-1], parseInts(*depths, "batch depth"))
		} else if *detect {
			entries = bench.DetectEntries(cfg, ts[len(ts)-1])
		} else if *vsizes != "" {
			entries = bench.ValueSizeEntries(cfg, parseInts(*vsizes, "value size"), ts[len(ts)-1])
		} else if *space != "" {
			entries = bench.SpaceEntries(cfg, parseInts(*space, "value size"), ts[len(ts)-1])
		} else {
			entries = bench.ShardingEntries(cfg, sh, ts[len(ts)-1])
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
		fmt.Fprintf(os.Stderr, "unknown figure %q\n", *fig)
		os.Exit(2)
	}
}
