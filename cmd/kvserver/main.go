// Command kvserver serves the wire protocol (internal/wire) over TCP
// against a sharded RedoDB on emulated persistent memory — the network
// front-end for cmd/kvload and any other client speaking the v1 framing.
//
//	kvserver -addr 127.0.0.1:7070 -shards 8 -threads 16
//	kvserver -addr 127.0.0.1:0 -addrfile /tmp/kv.addr -buffered
//
// -addrfile writes the actually-bound address (useful with port 0) so
// scripts can start the server in the background and wait for readiness by
// polling the file; ci.sh's loopback smoke does exactly that.
//
// The store lives on the simulated pmem heap, so its contents do not
// survive the process; kvserver exists to serve real sockets — pipelining,
// batching, backpressure, durability flags — not to be a durable daemon.
// In -buffered mode writes commit into the in-flight epoch and the group
// persister seals every shard's epoch every -persist-every; clients order
// themselves against the watermark with SYNC or FlagDurable.
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/pmem"
	"repro/internal/server"
	"repro/internal/shardeddb"
)

func main() {
	var (
		addr         = flag.String("addr", "127.0.0.1:7070", "listen address (port 0 picks a free port)")
		addrFile     = flag.String("addrfile", "", "write the bound address to this file once listening")
		shards       = flag.Int("shards", 8, "shard count")
		threads      = flag.Int("threads", 16, "concurrent connections served (thread-id pool)")
		buffered     = flag.Bool("buffered", false, "relaxed durability: group commit with epoch watermarks")
		persistEvery = flag.Duration("persist-every", 200*time.Microsecond, "buffered-mode persister cadence")
		shardWords   = flag.Uint64("shard-words", 1<<18, "words of emulated pmem per shard")
		maxBatch     = flag.Int("max-batch", 64, "per-connection write-batch flush threshold")
	)
	flag.Parse()

	g := shardeddb.NewGroup(shardeddb.GroupConfig{
		Shards:     *shards,
		Threads:    *threads,
		ShardWords: *shardWords,
		Mode:       pmem.Direct,
		Buffered:   *buffered,
	})
	db := shardeddb.Open(g, shardeddb.Options{
		Threads:      *threads,
		Buffered:     *buffered,
		PersistEvery: *persistEvery,
	})
	defer db.Close()

	srv := server.New(db, server.Options{Threads: *threads, MaxBatch: *maxBatch})
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "kvserver: listen %s: %v\n", *addr, err)
		os.Exit(1)
	}
	bound := ln.Addr().String()
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(bound), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "kvserver: addrfile: %v\n", err)
			os.Exit(1)
		}
	}
	fmt.Printf("kvserver: serving %d shards on %s (buffered=%v threads=%d)\n",
		*shards, bound, *buffered, *threads)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		srv.Stop()
	}()

	if err := srv.Serve(ln); err != nil {
		fmt.Fprintf(os.Stderr, "kvserver: %v\n", err)
		os.Exit(1)
	}
	srv.Wait()
}
