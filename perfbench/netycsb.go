package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net"
	"runtime"
	"time"

	"repro/internal/load"
	"repro/internal/palloc"
	"repro/internal/pmem"
	"repro/internal/redodb"
	"repro/internal/server"
	"repro/internal/shardeddb"
	"repro/internal/wire"
)

// net-ycsb-a: a server.Server on loopback, in this process, over a
// preloaded shardeddb configured as cmd/kvserver configures it. Two
// connections run YCSB-A (50/50 read/update, zipfian keys, 100-byte
// values): first a pipelined closed loop with a fixed window, which gives
// the throughput, then synchronous callers with one request outstanding,
// which give the latency.
//
// Server and clients run on one P (GOMAXPROCS 1). The serving path is
// serial at about one core either way: with two Ps the pipelined phase
// used 0.9 of the two CPUs and reached the same throughput as with one.
// What two Ps add is a hand-off between CPUs at every wake-up, whose cost
// on a shared virtual machine follows the host's load: with two Ps the
// pipelined throughput spread 25% over five runs and the p99 latencies
// 22-29%, against 9% and 7-9% on one P in the same interleaved runs.
const (
	netShards     = 8       // cmd/kvserver's default
	netShardWords = 1 << 18 // cmd/kvserver's default
	netMaxBatch   = 64      // cmd/kvserver's default
	netProcs      = 1       // GOMAXPROCS while the workload runs
	pipelineDepth = 500     // outstanding requests per connection, pipelined phase
	roundBursts   = roundOps / pipelineDepth
	netWarm       = time.Second // pipelined warm-up before the first timed phase
	captureBytes  = 1 << 20     // wire bytes kept per direction for re-decoding
)

// netWorker is one client connection with its own samples and checks.
type netWorker struct {
	observer
	id      int
	keys    zipfKeys
	hist    *history
	shardOf func([]byte) int
	conn    net.Conn
	dec     *wire.Decoder
	cl      *load.Client // synchronous phase, on the same connection
	nextID  uint64
	broken  bool // the connection failed; the worker stops
	out     []byte
	reqs    []netReq
	key     []byte
	val     []byte

	writeOps, readOps int64     // pipelined phase, this round
	writes, reads     latencies // synchronous phase, this round

	// Traced run only: distinct (shard, commit epoch) pairs of
	// acknowledged PUTs, and the bytes sent and received.
	commits     map[[2]uint64]struct{}
	sent, recvd *bytes.Buffer
}

type netReq struct {
	key  uint64
	read bool
	id   valueID
}

// cappedWriter keeps the first limit bytes written to it.
type cappedWriter struct {
	buf   *bytes.Buffer
	limit int
}

func (c cappedWriter) Write(p []byte) (int, error) {
	if room := c.limit - c.buf.Len(); room > 0 {
		c.buf.Write(p[:min(room, len(p))])
	}
	return len(p), nil
}

func (w *netWorker) dial(addr string, trace bool) error {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	w.conn = c
	var r io.Reader = c
	if trace {
		w.commits = make(map[[2]uint64]struct{})
		w.sent, w.recvd = &bytes.Buffer{}, &bytes.Buffer{}
		r = io.TeeReader(c, cappedWriter{w.recvd, captureBytes})
	}
	w.dec = wire.NewDecoder(r, wire.Limits{})
	w.cl = load.NewClient(c, uint64(w.id)+1)
	return w.cl.Hello()
}

// pipelinedRound sends roundBursts windows of requests; each window is
// written at once and all its responses are read before the next.
func (w *netWorker) pipelinedRound(measure bool) {
	for b := 0; b < roundBursts && !w.broken; b++ {
		w.burst(measure)
	}
}

func (w *netWorker) burst(measure bool) {
	w.out, w.reqs = w.out[:0], w.reqs[:0]
	first := w.nextID + 1
	for i := 0; i < pipelineDepth; i++ {
		k, read := w.keys.next()
		w.key = load.KeyBytes(w.key[:0], k)
		w.nextID++
		if read {
			w.out = wire.AppendFrame(w.out, &wire.Frame{Op: wire.OpGet, ReqID: w.nextID, Key: w.key})
			w.reqs = append(w.reqs, netReq{key: k, read: true})
			continue
		}
		id := w.hist.next(w.id, k)
		w.val = appendValue(w.val[:0], id)
		w.out = wire.AppendFrame(w.out, &wire.Frame{Op: wire.OpPut, ReqID: w.nextID, Key: w.key, Val: w.val})
		w.reqs = append(w.reqs, netReq{key: k, id: id})
	}
	if w.sent != nil {
		cappedWriter{w.sent, captureBytes}.Write(w.out)
	}
	if _, err := w.conn.Write(w.out); err != nil {
		w.broken = true
		w.fail("connection %d: send: %v", w.id, err)
		return
	}
	var f wire.Frame
	for i, r := range w.reqs {
		w.attempted++
		if err := w.dec.ReadFrame(&f); err != nil {
			w.broken = true
			w.fail("connection %d: receive: %v", w.id, err)
			return
		}
		op := wire.OpPut
		if r.read {
			op = wire.OpGet
		}
		if f.Op != op|wire.RespBit || f.ReqID != first+uint64(i) {
			w.broken = true
			w.fail("connection %d: got %v for request %d, want %v for %d", w.id, f.Op, f.ReqID, op|wire.RespBit, first+uint64(i))
			return
		}
		switch {
		case r.read:
			w.observe(r.key, f.Val, f.Status() == wire.StatusOK)
			if measure {
				w.readOps++
			}
		case f.Status() != wire.StatusOK:
			w.fail("put %d: status %d", r.key, f.Status())
		default:
			w.hist.acked(r.id)
			if !measure {
				continue
			}
			w.writeOps++
			if w.commits != nil {
				w.key = load.KeyBytes(w.key[:0], r.key)
				w.commits[[2]uint64{uint64(w.shardOf(w.key)), f.Aux}] = struct{}{}
			}
		}
	}
}

// syncRound runs roundOps synchronous calls, one outstanding at a time.
func (w *netWorker) syncRound(measure bool) {
	for i := 0; i < roundOps && !w.broken; i++ {
		k, read := w.keys.next()
		w.key = load.KeyBytes(w.key[:0], k)
		w.attempted++
		if read {
			t := time.Now()
			v, ok, err := w.cl.Get(w.key)
			d := time.Since(t)
			if err != nil {
				w.broken = true
				w.fail("connection %d: get: %v", w.id, err)
				return
			}
			if measure {
				w.reads.add(d)
			}
			w.observe(k, v, ok)
			continue
		}
		id := w.hist.next(w.id, k)
		w.val = appendValue(w.val[:0], id)
		t := time.Now()
		_, err := w.cl.Put(w.key, w.val)
		d := time.Since(t)
		if err != nil {
			w.broken = true
			w.fail("connection %d: put: %v", w.id, err)
			return
		}
		w.hist.acked(id)
		if measure {
			w.writes.add(d)
		}
	}
}

// openNet creates the pmem group and the store, and preloads every key.
func openNet() (*pmem.Group, *shardeddb.DB) {
	g := shardeddb.NewGroup(shardeddb.GroupConfig{
		Shards: netShards, Threads: workers, ShardWords: netShardWords, Mode: pmem.Direct,
	})
	db := shardeddb.Open(g, shardeddb.Options{Threads: workers})
	s := db.Session(0)
	preloadRedo(func(keys, vals [][]byte) {
		var b shardeddb.WriteBatch
		for i := range keys {
			b.Put(keys[i], vals[i])
		}
		s.Write(&b)
	}, rwKeys)
	return g, db
}

func runNetYCSBA(cfg config) *outcome {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(netProcs))
	o := newOutcome(cfg)
	n := &netRun{cfg: cfg, o: o, zetan: load.Zetan(rwKeys, theta), commits: make(map[[2]uint64]struct{})}
	groups := make([]*pmem.Group, stores)
	dbs := make([]*shardeddb.DB, stores)
	for i := range dbs {
		runtime.GC()
		t0 := time.Now()
		groups[i], dbs[i] = openNet()
		o.e2e.setup.add(time.Since(t0))
	}
	o.e2e.tput.size, o.e2e.lat.size = windowSize, windowSize
	for i := range dbs {
		warm := netWarm / 4
		if i == 0 {
			warm = netWarm // the first network phase of a process runs slow
		}
		n.serve(i, groups[i], dbs[i], warm)
		groups[i], dbs[i] = nil, nil
	}
	l := &o.lay
	l.commits = uint64(len(n.commits))
	l.serviceP50, l.serviceP99 = quantile(n.serviceP50, 0.5), quantile(n.serviceP99, 0.5)
	l.clientOverheadNs = quantile(n.overhead, 0.5)
	if cfg.trace {
		l.encodeNs, l.decodeNs = wireCost(n.captured)
	}
	return o
}

// netRun is one net-ycsb-a run: its stores are served one after another.
type netRun struct {
	cfg   config
	o     *outcome
	zetan float64

	commits                          map[[2]uint64]struct{}
	serviceP50, serviceP99, overhead []float64 // one per store, ns
	captured                         [][]byte
}

// serve runs the phases of the workload against one store: a server on
// loopback, two connections, a pipelined warm-up, the pipelined phase, the
// synchronous phase, then the checks and clean reopens.
func (n *netRun) serve(store int, g *pmem.Group, db *shardeddb.DB, warm time.Duration) {
	o, e, l, cfg := n.o, &n.o.e2e, &n.o.lay, n.cfg
	srv := server.New(db, server.Options{Threads: workers, MaxBatch: netMaxBatch})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		o.fail("listen: %v", err)
		return
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	hist := newHistory(workers, rwKeys)
	shardOf := db.Session(0).ShardOf
	ws := make([]*netWorker, workers)
	for w := range ws {
		ws[w] = &netWorker{id: w, keys: newZipfKeys(cfg.seed, store*workers+w, n.zetan), hist: hist, shardOf: shardOf}
		if err := ws[w].dial(ln.Addr().String(), cfg.trace); err != nil {
			o.fail("connection %d: %v", w, err)
			ws = ws[:w]
			break
		}
	}
	if len(ws) == workers {
		n.drive(g, ws, warm)
	}
	for _, w := range ws {
		w.conn.Close()
	}
	srv.Stop()
	if err := <-served; err != nil {
		o.fail("serve: %v", err)
	}
	srv.Wait()

	for _, w := range ws {
		w.verify(hist, &o.checks)
		for c := range w.commits {
			n.commits[[2]uint64{uint64(store)<<32 | c[0], c[1]}] = struct{}{}
		}
		if cfg.trace {
			n.captured = append(n.captured, w.sent.Bytes(), w.recvd.Bytes())
		}
	}
	s := db.Session(0)
	checkFinal(&o.checks, func(_, key []byte) ([]byte, bool) { return s.Get(key) }, hist, rwKeys)
	if err := db.AllocReconcile(); err != nil {
		o.fail("AllocReconcile: %v", err)
	}
	heapBytes, keys, heap := shardHeap(g)
	l.heap = heap
	if keys != rwKeys {
		o.fail("store holds %d keys, want %d", keys, rwKeys)
	}
	if min := uint64(rwKeys) * (keySize + valueSize); heapBytes < min {
		o.fail("heap holds %d bytes, below the %d bytes stored", heapBytes, min)
	}
	e.heapBytes += heapBytes
	e.liveKeys += keys

	// Clean restart: reopen copies of the quiescent image.
	scratch := g.Clone()
	total, opened := timeReopens(reopensPerStore, func() { g.CloneInto(scratch) }, func() func() {
		db := shardeddb.Open(scratch, shardeddb.Options{Threads: workers})
		return func() { db.Session(0).Put(reopenKey, reopenVal) }
	})
	o.attempted += reopensPerStore
	e.recovery = append(e.recovery, total...)
	l.shardOpen = append(l.shardOpen, opened...)
}

// drive runs the warm-up, the pipelined phase and the synchronous phase
// over the connections ws.
func (n *netRun) drive(g *pmem.Group, ws []*netWorker, warm time.Duration) {
	o, e, l, cfg := n.o, &n.o.e2e, &n.o.lay, n.cfg
	phase := cfg.seconds / (2 * stores)
	runRounds(workers, warm, func(w int) { ws[w].pipelinedRound(false) }, func(time.Duration) {})

	// Pipelined phase: throughput.
	stats0, coord0 := g.Stats(), g.Pool(0).Stats()
	if cfg.trace {
		g.SetTracer(l.tally.tr)
		l.tally.resume()
	}
	runRounds(workers, phase, func(w int) { ws[w].pipelinedRound(true) }, func(d time.Duration) {
		l.tally.drain()
		var writeOps, readOps int64
		for _, w := range ws {
			writeOps, readOps = writeOps+w.writeOps, readOps+w.readOps
			w.writeOps, w.readOps = 0, 0
		}
		e.tput.add(d, writeOps, readOps, nil, nil)
		l.writes += writeOps
		l.ops += writeOps + readOps
	})
	l.tally.pause()
	g.SetTracer(nil)
	stats := g.Stats().Sub(stats0)
	e.pwbs += stats.PWBs
	l.pmem = addStats(l.pmem, stats)
	l.coordFences += g.Pool(0).Stats().Sub(coord0).Fences()

	// Synchronous phase: latency, with the server's service times of
	// exactly this phase.
	if _, err := ws[0].cl.StatsReset(); err != nil {
		o.fail("stats reset: %v", err)
	}
	var writes, reads, all latencies
	runRounds(workers, phase, func(w int) { ws[w].syncRound(true) }, func(d time.Duration) {
		writes, reads = writes[:0], reads[:0]
		for _, w := range ws {
			writes, reads = append(writes, w.writes...), append(reads, w.reads...)
			w.writes, w.reads = w.writes[:0], w.reads[:0]
		}
		e.lat.add(d, int64(len(writes)), int64(len(reads)), writes, reads)
		all = append(append(all, writes...), reads...)
	})
	raw, err := ws[0].cl.Stats()
	if err != nil {
		o.fail("stats: %v", err)
		return
	}
	var st server.StatsSnapshot
	if err := json.Unmarshal(raw, &st); err != nil {
		o.fail("stats: %v", err)
		return
	}
	n.serviceP50 = append(n.serviceP50, float64(st.All.P50Ns))
	n.serviceP99 = append(n.serviceP99, float64(st.All.P99Ns))
	n.overhead = append(n.overhead, all.quantile(0.5)-float64(st.All.P50Ns))
}

// shardHeap opens a copy of every shard pool as the RedoDB it is and sums
// the heap bytes in use on the live replica, the live keys, and the
// allocator breakdown.
func shardHeap(g *pmem.Group) (heapBytes, keys uint64, heap palloc.HeapStats) {
	for i := 1; i < g.Len(); i++ {
		db := redodb.Open(g.Pool(i).Clone(), redodb.Options{Threads: workers})
		heapBytes += db.NVMUsedBytes()
		keys += db.Session(0).Len()
		h := db.AllocStats()
		heap.InUseWords += h.InUseWords
		heap.MetaWords += h.MetaWords
		heap.FreePages += h.FreePages
	}
	return heapBytes, keys, heap
}

// wireCost re-decodes and re-encodes captured frame streams from memory and
// returns the mean cost per frame of each, in nanoseconds.
func wireCost(streams [][]byte) (encodeNs, decodeNs float64) {
	var frames []wire.Frame
	for _, s := range streams {
		for {
			f, n, err := wire.DecodeFrame(s, wire.DefaultLimits)
			if err != nil {
				break // the capture ends inside a frame
			}
			frames = append(frames, f)
			s = s[n:]
		}
	}
	if len(frames) == 0 {
		return 0, 0
	}
	const minTime = 100 * time.Millisecond
	var (
		n   int
		buf []byte
	)
	start := time.Now()
	for time.Since(start) < minTime {
		for i := range frames {
			buf = wire.AppendFrame(buf[:0], &frames[i])
		}
		n += len(frames)
	}
	encodeNs = float64(time.Since(start)) / float64(n)
	n = 0
	start = time.Now()
	for time.Since(start) < minTime {
		for _, s := range streams {
			for {
				_, used, err := wire.DecodeFrame(s, wire.DefaultLimits)
				if err != nil {
					break
				}
				s = s[used:]
				n++
			}
		}
	}
	decodeNs = float64(time.Since(start)) / float64(n)
	return encodeNs, decodeNs
}
