package server_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/load"
	"repro/internal/pmem"
	"repro/internal/server"
	"repro/internal/shardeddb"
	"repro/internal/wire"
)

// harness owns one server incarnation over a loopback listener plus the
// pmem group that outlives it — crash tests trip the server, crash the
// group, and start a fresh incarnation on a new port against the same
// persistent state.
type harness struct {
	t        *testing.T
	g        *pmem.Group
	shards   int
	threads  int
	buffered bool

	db       *shardeddb.DB
	srv      *server.Server
	addr     string
	serveErr chan error
}

type harnessConfig struct {
	shards, threads int
	buffered        bool
	mode            pmem.Mode
	shardWords      uint64
}

func newHarness(t *testing.T, cfg harnessConfig) *harness {
	if cfg.shards == 0 {
		cfg.shards = 4
	}
	if cfg.threads == 0 {
		cfg.threads = 2
	}
	h := &harness{
		t:       t,
		shards:  cfg.shards,
		threads: cfg.threads, buffered: cfg.buffered,
		g: shardeddb.NewGroup(shardeddb.GroupConfig{
			Shards:     cfg.shards,
			Threads:    cfg.threads,
			Mode:       cfg.mode,
			Buffered:   cfg.buffered,
			ShardWords: cfg.shardWords,
		}),
	}
	h.start()
	t.Cleanup(h.stopQuiet)
	return h
}

// start opens the store and serves a fresh listener; used both at setup and
// after a crash/reopen cycle.
func (h *harness) start() {
	h.db = shardeddb.Open(h.g, shardeddb.Options{
		Threads: h.threads, Buffered: h.buffered, PersistEvery: -1,
	})
	h.srv = server.New(h.db, server.Options{Threads: h.threads})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		h.t.Fatalf("listen: %v", err)
	}
	h.addr = ln.Addr().String()
	h.serveErr = make(chan error, 1)
	go func() { h.serveErr <- h.srv.Serve(ln) }()
}

// stop shuts the incarnation down cleanly and returns Serve's error.
func (h *harness) stop() error {
	h.srv.Stop()
	err := <-h.serveErr
	h.srv.Wait()
	return err
}

func (h *harness) stopQuiet() { h.srv.Stop(); h.srv.Wait() }

// awaitFailure blocks until a simulated power failure tripped the server.
func (h *harness) awaitFailure() {
	if err := <-h.serveErr; err != server.ErrServerFailed {
		h.t.Fatalf("Serve returned %v, want ErrServerFailed", err)
	}
	h.srv.Wait()
	if !h.srv.Failed() {
		h.t.Fatal("server not marked failed after power failure")
	}
}

// restartAfterCrash crashes the group and brings up a fresh incarnation.
func (h *harness) restartAfterCrash(policy pmem.CrashPolicy) {
	h.g.InjectFailure(-1)
	h.g.Crash(policy, nil)
	h.start()
}

func (h *harness) dial(clientID uint64) *load.Client {
	cl, err := load.Dial(h.addr, clientID)
	if err != nil {
		h.t.Fatalf("dial %s: %v", h.addr, err)
	}
	return cl
}

// TestServerConformance walks the full request surface over a real socket.
func TestServerConformance(t *testing.T) {
	h := newHarness(t, harnessConfig{shards: 4, threads: 2})
	cl := h.dial(7)
	defer cl.Close()

	if cl.Buffered() {
		t.Fatal("synchronous server declared ModeBuffered")
	}

	// PUT / GET / DELETE.
	if _, err := cl.Put([]byte("alpha"), []byte("one")); err != nil {
		t.Fatalf("put: %v", err)
	}
	v, ok, err := cl.Get([]byte("alpha"))
	if err != nil || !ok || !bytes.Equal(v, []byte("one")) {
		t.Fatalf("get alpha = %q %v %v", v, ok, err)
	}
	if _, ok, _ := cl.Get([]byte("missing")); ok {
		t.Fatal("get of absent key reported present")
	}
	if present, _ := cl.Delete([]byte("alpha")); !present {
		t.Fatal("delete of live key reported absent")
	}
	if present, _ := cl.Delete([]byte("alpha")); present {
		t.Fatal("delete of dead key reported present")
	}

	// Cross-shard WRITEBATCH, then SCAN sees it all-or-nothing and sorted.
	var ops []load.BatchOp
	for i := 0; i < 10; i++ {
		ops = append(ops, load.BatchOp{
			Key: []byte(fmt.Sprintf("batch-%02d", i)),
			Val: []byte(fmt.Sprintf("bv-%02d", i)),
		})
	}
	if _, err := cl.Write(ops); err != nil {
		t.Fatalf("writebatch: %v", err)
	}
	pairs, err := cl.Scan([]byte("batch-"), 0)
	if err != nil {
		t.Fatalf("scan: %v", err)
	}
	if len(pairs) != 10 {
		t.Fatalf("scan returned %d pairs, want 10", len(pairs))
	}
	for i, p := range pairs {
		if want := fmt.Sprintf("batch-%02d", i); string(p.Key) != want {
			t.Fatalf("scan pair %d key %q, want %q (sorted order)", i, p.Key, want)
		}
	}
	if pairs, _ = cl.Scan([]byte("batch-05"), 3); len(pairs) != 3 || string(pairs[0].Key) != "batch-05" {
		t.Fatalf("bounded scan from batch-05: %d pairs, first %q", len(pairs), pairs[0].Key)
	}

	// Detectable writes: exactly-once with dedup on re-send, witnessed by
	// WASAPPLIED and DETECTSTATS, pruned by ACK.
	applied, _, err := cl.PutDetectable(1, []byte("det"), []byte("d1"))
	if err != nil || !applied {
		t.Fatalf("detectable put #1: applied=%v err=%v", applied, err)
	}
	if applied, _, _ = cl.PutDetectable(1, []byte("det"), []byte("d1")); applied {
		t.Fatal("re-sent detectable put not deduplicated")
	}
	if ok, _ := cl.WasApplied(1); !ok {
		t.Fatal("WASAPPLIED(1) = false after apply")
	}
	if ok, _ := cl.WasApplied(99); ok {
		t.Fatal("WASAPPLIED(99) = true for never-sent seq")
	}
	if applied, _, _ = cl.WriteDetectable(2, ops[:4]); !applied {
		t.Fatal("detectable writebatch not applied")
	}
	if applied, _, _ = cl.WriteDetectable(2, ops[:4]); applied {
		t.Fatal("re-sent detectable writebatch not deduplicated")
	}
	receipts, maxSeq, acked := mustDetectStats(t, cl)
	if receipts != 2 || maxSeq != 2 || acked != 0 {
		t.Fatalf("detect stats = (%d,%d,%d), want (2,2,0)", receipts, maxSeq, acked)
	}
	if err := cl.Ack(2); err != nil {
		t.Fatalf("ack: %v", err)
	}
	if _, _, acked = mustDetectStats(t, cl); acked != 2 {
		t.Fatalf("acked watermark = %d after Ack(2)", acked)
	}

	// SYNC on a synchronous server: legal, trivially satisfied.
	if _, err := cl.Sync(); err != nil {
		t.Fatalf("sync: %v", err)
	}

	// STATS is well-formed JSON with plausible counters.
	raw, err := cl.Stats()
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	var st server.StatsSnapshot
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatalf("stats JSON: %v\n%s", err, raw)
	}
	if st.Ops == 0 || st.Conns != 1 || st.All.Count == 0 {
		t.Fatalf("implausible stats: %+v", st)
	}

	// A detectable op on an anonymous connection is a client error that the
	// connection survives.
	anon := h.dial(0)
	defer anon.Close()
	if _, _, err := anon.PutDetectable(1, []byte("x"), []byte("y")); err == nil {
		t.Fatal("detectable put without client id did not error")
	}
	if _, err := anon.Put([]byte("x"), []byte("y")); err != nil {
		t.Fatalf("connection did not survive the client error: %v", err)
	}
}

// TestStatsReportsShards: STATS carries the served store's shard count, the
// field a load generator labels its results with.
func TestStatsReportsShards(t *testing.T) {
	h := newHarness(t, harnessConfig{shards: 3, threads: 1})
	cl := h.dial(0)
	defer cl.Close()
	raw, err := cl.Stats()
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	var st server.StatsSnapshot
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatalf("stats JSON: %v\n%s", err, raw)
	}
	if st.Shards != h.db.Shards() || st.Shards != 3 {
		t.Fatalf("STATS shards = %d, want db.Shards() = %d", st.Shards, h.db.Shards())
	}
}

// TestLoadRunReportsShardsAndLateness: load.Run labels its result with the
// served shard count, and reports generator lateness (send time minus
// scheduled arrival) for an open-loop cell and none for a closed-loop one,
// where every op is sent the moment it is built.
func TestLoadRunReportsShardsAndLateness(t *testing.T) {
	h := newHarness(t, harnessConfig{shards: 3, threads: 2})
	if err := load.Preload(h.addr, 100, 16); err != nil {
		t.Fatalf("preload: %v", err)
	}
	for _, rate := range []float64{2000, 0} {
		mix, _ := load.MixByName("ycsb-c")
		res, err := load.Run(load.RunConfig{
			Addr: h.addr, Mix: mix, Duration: 100 * time.Millisecond,
			Rate: rate, Keys: 100, ValueSize: 16,
		})
		if err != nil {
			t.Fatalf("rate %v: %v", rate, err)
		}
		if res.Shards != 3 {
			t.Fatalf("rate %v: result shards = %d, want 3", rate, res.Shards)
		}
		if open := rate > 0; open != (res.LateP99 > 0) || res.LateP50 > res.LateP99 {
			t.Fatalf("rate %v: lateness p50 %v p99 %v", rate, res.LateP50, res.LateP99)
		}
	}
}

func mustDetectStats(t *testing.T, cl *load.Client) (receipts, maxSeq, acked uint64) {
	t.Helper()
	receipts, maxSeq, acked, err := cl.DetectStats()
	if err != nil {
		t.Fatalf("detect stats: %v", err)
	}
	return receipts, maxSeq, acked
}

// TestServerPipelinedPuts writes a burst of PUT frames in one socket write
// and asserts the responses come back strictly in request order, each with a
// commit epoch, and that every value landed — the server-side batching path.
func TestServerPipelinedPuts(t *testing.T) {
	h := newHarness(t, harnessConfig{shards: 4, threads: 1})
	c, err := net.Dial("tcp", h.addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()

	const n = 200
	var buf []byte
	for i := 0; i < n; i++ {
		buf = wire.AppendFrame(buf, &wire.Frame{
			Op:    wire.OpPut,
			ReqID: uint64(i + 1),
			Key:   []byte(fmt.Sprintf("pipe-%03d", i)),
			Val:   []byte(fmt.Sprintf("pv-%03d", i)),
		})
	}
	// Interleave a GET at the end so the burst has a read barrier to answer
	// after the deferred PUT responses.
	buf = wire.AppendFrame(buf, &wire.Frame{Op: wire.OpGet, ReqID: n + 1, Key: []byte("pipe-000")})
	if _, err := c.Write(buf); err != nil {
		t.Fatalf("write burst: %v", err)
	}

	dec := wire.NewDecoder(c, wire.Limits{})
	var resp wire.Frame
	for i := 0; i < n; i++ {
		if err := dec.ReadFrame(&resp); err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
		if resp.Op != wire.OpPut|wire.RespBit || resp.ReqID != uint64(i+1) {
			t.Fatalf("response %d out of order: op %v req %d", i, resp.Op, resp.ReqID)
		}
		if resp.Status() != wire.StatusOK || resp.Aux == 0 {
			t.Fatalf("response %d: status %d epoch %d", i, resp.Status(), resp.Aux)
		}
	}
	if err := dec.ReadFrame(&resp); err != nil || resp.Op != wire.OpGet|wire.RespBit {
		t.Fatalf("trailing get response: %v %v", resp.Op, err)
	}
	if !bytes.Equal(resp.Val, []byte("pv-000")) {
		t.Fatalf("trailing get = %q", resp.Val)
	}

	// Release the single thread id before dialing the verification client:
	// admission waits on the tid pool, so on a Threads=1 server the next
	// connection is not served until this one closes.
	c.Close()

	cl := h.dial(0)
	defer cl.Close()
	for i := 0; i < n; i++ {
		v, ok, err := cl.Get([]byte(fmt.Sprintf("pipe-%03d", i)))
		if err != nil || !ok || !bytes.Equal(v, []byte(fmt.Sprintf("pv-%03d", i))) {
			t.Fatalf("pipelined put %d lost or corrupted: %q %v %v", i, v, ok, err)
		}
	}
}

// TestRaceSmokeServerPipelined is the -race pin for the per-connection
// arena-batch reuse under real concurrency (run by ci.sh): N pipelined
// connections hammer overlapping keys through the batching path while
// another connection scans, and every connection's final write must win or
// lose whole — never interleave bytes.
func TestRaceSmokeServerPipelined(t *testing.T) {
	const conns = 4
	h := newHarness(t, harnessConfig{shards: 4, threads: conns + 1})
	var wg sync.WaitGroup
	for cid := 0; cid < conns; cid++ {
		wg.Add(1)
		go func(cid int) {
			defer wg.Done()
			c, err := net.Dial("tcp", h.addr)
			if err != nil {
				t.Errorf("conn %d: %v", cid, err)
				return
			}
			defer c.Close()
			dec := wire.NewDecoder(c, wire.Limits{})
			var buf []byte
			var resp wire.Frame
			for round := 0; round < 20; round++ {
				buf = buf[:0]
				const per = 16
				for i := 0; i < per; i++ {
					buf = wire.AppendFrame(buf, &wire.Frame{
						Op:    wire.OpPut,
						ReqID: uint64(round*per + i + 1),
						Key:   []byte(fmt.Sprintf("hot-%02d", (round+i*3)%16)),
						Val:   []byte(fmt.Sprintf("conn%d-round%02d-val", cid, round)),
					})
				}
				if _, err := c.Write(buf); err != nil {
					t.Errorf("conn %d write: %v", cid, err)
					return
				}
				for i := 0; i < per; i++ {
					if err := dec.ReadFrame(&resp); err != nil || resp.Status() != wire.StatusOK {
						t.Errorf("conn %d resp: %v status %d", cid, err, resp.Status())
						return
					}
				}
			}
		}(cid)
	}
	wg.Wait()

	cl := h.dial(0)
	defer cl.Close()
	pairs, err := cl.Scan(nil, 0)
	if err != nil {
		t.Fatalf("final scan: %v", err)
	}
	for _, p := range pairs {
		var cid, round int
		if _, err := fmt.Sscanf(string(p.Val), "conn%d-round%02d-val", &cid, &round); err != nil {
			t.Fatalf("key %q holds torn value %q", p.Key, p.Val)
		}
	}
}
