// Command kvload drives YCSB-style traffic at a running kvserver over the
// wire protocol: zipfian hot keys, pipelined connections, open-loop Poisson
// arrivals at an offered rate, and client- plus server-side latency
// percentiles per cell.
//
//	kvload -addr 127.0.0.1:7070 -workloads ycsb-b -rates 8000 -secs 2
//	kvload -addr $(cat /tmp/kv.addr) -workloads ycsb-a,ycsb-b,ycsb-c,ycsb-f \
//	       -rates 4000,16000 -conns 4 -secs 0.4 -json load.json
//
// Cells are the cross product of -workloads and -rates (rate 0 = closed
// loop). The key space is preloaded once, then each cell resets the
// server's stats so its reported server-side p50/p99 cover exactly that
// cell. YCSB-F's read-modify-writes go through the detectable exactly-once
// path; every cell verifies its receipts afterwards (sequence range,
// applied count, dedup on a re-sent request) and any mismatch counts as a
// cell error — a run exits nonzero if any cell saw errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/load"
)

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:7070", "kvserver address")
		workloads = flag.String("workloads", "ycsb-b", "comma-separated mixes: ycsb-a, ycsb-b, ycsb-c, ycsb-f")
		rates     = flag.String("rates", "0", "comma-separated offered loads in ops/s (0 = closed loop)")
		conns     = flag.Int("conns", 4, "pipelined connections per cell")
		secs      = flag.Float64("secs", 2.0, "seconds per cell")
		keys      = flag.Int("keys", 10_000, "preloaded key-space size")
		valueSize = flag.Int("valuesize", 100, "value payload bytes")
		theta     = flag.Float64("theta", 0.99, "zipfian skew")
		window    = flag.Int("window", 64, "max in-flight ops per connection")
		seed      = flag.Int64("seed", 1, "workload rng seed")
		jsonPath  = flag.String("json", "", "write bench entries to this file")
	)
	flag.Parse()

	var rateList []float64
	for _, r := range strings.Split(*rates, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(r), 64)
		if err != nil {
			fatalf("bad -rates entry %q: %v", r, err)
		}
		rateList = append(rateList, v)
	}
	var mixes []load.Mix
	for _, w := range strings.Split(*workloads, ",") {
		m, err := load.MixByName(strings.TrimSpace(w))
		if err != nil {
			fatalf("%v", err)
		}
		mixes = append(mixes, m)
	}

	fmt.Printf("kvload: preloading %d keys (%d B values) at %s\n", *keys, *valueSize, *addr)
	if err := load.Preload(*addr, *keys, *valueSize); err != nil {
		fatalf("preload: %v", err)
	}

	var entries []bench.BenchEntry
	var totalErrs uint64
	clientBase := uint64(0)
	for _, mix := range mixes {
		for _, rate := range rateList {
			res, err := load.Run(load.RunConfig{
				Addr:       *addr,
				Mix:        mix,
				Conns:      *conns,
				Duration:   time.Duration(*secs * float64(time.Second)),
				Rate:       rate,
				Keys:       *keys,
				ValueSize:  *valueSize,
				Theta:      *theta,
				Window:     *window,
				ClientBase: clientBase,
				Seed:       *seed,
			})
			// Fresh detectable client ids per cell so receipt verification
			// sees exactly one cell's sequence range.
			clientBase += uint64(*conns)
			if err != nil {
				fatalf("cell (%s, %.0f/s): %v", mix.Name, rate, err)
			}
			fmt.Printf("%-7s offered %7.0f/s achieved %8.0f/s  client p50 %8v p99 %8v  server p50 %8v p99 %8v  errors %d\n",
				res.Workload, res.Offered, res.Achieved,
				res.ClientP50, res.ClientP99, res.ServerP50, res.ServerP99, res.Errors)
			totalErrs += res.Errors
			entries = append(entries, bench.BenchEntry{
				Workload:      res.Workload,
				Engine:        "shardeddb-net",
				Threads:       *conns,
				Conns:         *conns,
				ValueSize:     *valueSize,
				OpsPerSec:     res.Achieved,
				OfferedPerSec: res.Offered,
				P50Ns:         int64(res.ClientP50),
				P99Ns:         int64(res.ClientP99),
				ServerP50Ns:   int64(res.ServerP50),
				ServerP99Ns:   int64(res.ServerP99),
				Errors:        res.Errors,
			})
		}
	}

	if *jsonPath != "" {
		out, err := json.MarshalIndent(entries, "", "  ")
		if err != nil {
			fatalf("marshal: %v", err)
		}
		if err := os.WriteFile(*jsonPath, append(out, '\n'), 0o644); err != nil {
			fatalf("write %s: %v", *jsonPath, err)
		}
		fmt.Printf("kvload: wrote %d entries to %s\n", len(entries), *jsonPath)
	}
	if totalErrs > 0 {
		fatalf("%d errors across cells", totalErrs)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "kvload: "+format+"\n", args...)
	os.Exit(1)
}
