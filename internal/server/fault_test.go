package server_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/lincheck"
	"repro/internal/load"
	"repro/internal/pmem"
	"repro/internal/wire"
)

// The server fault battery: connections that die mid-request, half-written
// frames, slow readers exercising per-connection backpressure, and a full
// server power-failure/restart cycle with clients driving detectable
// retries — exactly-once asserted from real socket traffic via DetectStats
// and a lincheck.CheckDurable DupID history.

// TestConnDropMidRequest pins two contracts of an abruptly dying
// connection: operations already decoded commit (the deferred batch flushes
// on the decode error), and the server survives to serve new connections.
func TestConnDropMidRequest(t *testing.T) {
	h := newHarness(t, harnessConfig{shards: 4, threads: 2})

	full := wire.AppendFrame(nil, &wire.Frame{
		Op: wire.OpPut, ReqID: 2,
		Key: []byte("drop-throwaway"), Val: []byte("x"),
	})
	// Cut the trailing frame inside its header, after its header, and
	// mid-payload; prefix each attempt with a complete PUT that must
	// survive the drop.
	for _, cut := range []int{1, wire.HeaderSize - 1, wire.HeaderSize, len(full) - 1} {
		c, err := net.Dial("tcp", h.addr)
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		key := []byte(fmt.Sprintf("drop-%03d", cut))
		buf := wire.AppendFrame(nil, &wire.Frame{Op: wire.OpPut, ReqID: 1, Key: key, Val: []byte("kept")})
		buf = append(buf, full[:cut]...)
		if _, err := c.Write(buf); err != nil {
			t.Fatalf("cut %d: write: %v", cut, err)
		}
		// Drop the connection without reading a single response byte.
		c.Close()
	}

	cl := h.dial(0)
	defer cl.Close()
	for _, cut := range []int{1, wire.HeaderSize - 1, wire.HeaderSize, len(full) - 1} {
		key := []byte(fmt.Sprintf("drop-%03d", cut))
		// The dropped connection's handler flushes its batch when the EOF
		// reaches it, asynchronously to our close — poll briefly.
		deadline := time.Now().Add(10 * time.Second)
		for {
			v, ok, err := cl.Get(key)
			if err != nil {
				t.Fatalf("cut %d: get: %v", cut, err)
			}
			if ok && bytes.Equal(v, []byte("kept")) {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("cut %d: completed put did not survive the drop: %q %v", cut, v, ok)
			}
			time.Sleep(time.Millisecond)
		}
		if _, ok, _ := cl.Get([]byte("drop-throwaway")); ok {
			t.Fatalf("cut %d: truncated frame's put took effect", cut)
		}
	}
}

// TestDesyncStreamDropsConnOnly feeds the server garbage and
// wrong-CRC/wrong-magic headers: each poisoned connection must be dropped
// (the stream is untrustworthy past a malformed frame) without taking the
// server or other connections with it.
func TestDesyncStreamDropsConnOnly(t *testing.T) {
	h := newHarness(t, harnessConfig{shards: 2, threads: 2})
	good := wire.AppendFrame(nil, &wire.Frame{Op: wire.OpGet, ReqID: 1, Key: []byte("k")})
	poisons := [][]byte{
		bytes.Repeat([]byte{0xff}, 200),          // noise
		append([]byte("XX"), good[2:]...),        // bad magic
		append([]byte{'k', 'v', 9}, good[3:]...), // bad version
		func() []byte { // flipped byte under the CRC
			b := append([]byte(nil), good...)
			b[9] ^= 0x40
			return b
		}(),
	}
	for i, p := range poisons {
		c, err := net.Dial("tcp", h.addr)
		if err != nil {
			t.Fatalf("poison %d: dial: %v", i, err)
		}
		if _, err := c.Write(p); err != nil {
			t.Fatalf("poison %d: write: %v", i, err)
		}
		// The server must close on us (EOF on read), not answer garbage.
		c.SetReadDeadline(time.Now().Add(5 * time.Second))
		var one [1]byte
		if n, err := c.Read(one[:]); err == nil || n > 0 {
			t.Fatalf("poison %d: server answered a desynchronized stream (n=%d err=%v)", i, n, err)
		}
		c.Close()
	}
	cl := h.dial(0)
	defer cl.Close()
	if _, err := cl.Put([]byte("after-poison"), []byte("ok")); err != nil {
		t.Fatalf("server did not survive poisoned connections: %v", err)
	}
}

// TestSlowReaderBackpressure wedges one connection by pipelining large-value
// GETs without reading any response: the server's write buffer and the
// socket fill, its handler blocks on that connection alone, and a second
// connection must stay fully responsive. Draining the stalled connection
// afterwards must yield every response intact, in order.
func TestSlowReaderBackpressure(t *testing.T) {
	h := newHarness(t, harnessConfig{shards: 2, threads: 2})

	big := bytes.Repeat([]byte("v"), 1<<15) // 32 KiB values
	cl := h.dial(0)
	defer cl.Close()
	if _, err := cl.Put([]byte("big"), big); err != nil {
		t.Fatalf("seed put: %v", err)
	}

	// The slow reader: request far more response bytes than the server-side
	// write buffer plus both socket buffers can hold, and do not read.
	const slowGets = 512 // ~16 MiB of responses
	slow, err := net.Dial("tcp", h.addr)
	if err != nil {
		t.Fatalf("dial slow: %v", err)
	}
	defer slow.Close()
	var burst []byte
	for i := 0; i < slowGets; i++ {
		burst = wire.AppendFrame(burst, &wire.Frame{Op: wire.OpGet, ReqID: uint64(i + 1), Key: []byte("big")})
	}
	if _, err := slow.Write(burst); err != nil {
		t.Fatalf("slow burst: %v", err)
	}

	// While the slow connection is stalled, the other connection does real
	// work with bounded latency.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			key := []byte(fmt.Sprintf("live-%03d", i))
			if _, err := cl.Put(key, []byte("live")); err != nil {
				t.Errorf("live put %d: %v", i, err)
				return
			}
			if v, ok, err := cl.Get(key); err != nil || !ok || !bytes.Equal(v, []byte("live")) {
				t.Errorf("live get %d: %q %v %v", i, v, ok, err)
				return
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("live connection starved behind a slow reader")
	}

	// Drain the stalled connection: all responses arrive, in order, intact.
	slow.SetReadDeadline(time.Now().Add(60 * time.Second))
	dec := wire.NewDecoder(slow, wire.Limits{})
	var resp wire.Frame
	for i := 0; i < slowGets; i++ {
		if err := dec.ReadFrame(&resp); err != nil {
			t.Fatalf("draining response %d: %v", i, err)
		}
		if resp.ReqID != uint64(i+1) || !bytes.Equal(resp.Val, big) {
			t.Fatalf("response %d: req %d, %d-byte value", i, resp.ReqID, len(resp.Val))
		}
	}
}

// Socket-history helpers for the lincheck rounds below.

const netKeys = 5

func netKey(k uint64) []byte { return []byte(fmt.Sprintf("net-key-%d", k)) }

func netVal(v uint64) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	return b[:]
}

func decodeNetVal(t *testing.T, b []byte, ok bool) uint64 {
	if !ok {
		return 0
	}
	if len(b) != 8 {
		t.Fatalf("torn value over the wire: %x", b)
	}
	return binary.LittleEndian.Uint64(b)
}

// TestDetectableSeqReuseKeepsServing: a client that re-uses a seq for a
// different operation gets StatusErr for that request, while its connection
// and the server keep serving and the first operation's effect stands.
func TestDetectableSeqReuseKeepsServing(t *testing.T) {
	h := newHarness(t, harnessConfig{})
	cl := h.dial(3)
	defer cl.Close()
	if applied, _, err := cl.PutDetectable(7, []byte("k"), []byte("v1")); err != nil || !applied {
		t.Fatalf("detectable PUT = (%v, %v), want applied", applied, err)
	}
	_, _, err := cl.WriteDetectable(7, []load.BatchOp{{Key: []byte("k"), Val: []byte("v2")}})
	if err == nil {
		t.Fatal("WRITEBATCH re-using seq 7 for a different operation succeeded")
	}
	if v, ok, err := cl.Get([]byte("k")); err != nil || !ok || string(v) != "v1" {
		t.Fatalf("GET k on the same connection = %q,%v,%v, want v1", v, ok, err)
	}
	if applied, _, err := cl.PutDetectable(8, []byte("k2"), []byte("v")); err != nil || !applied {
		t.Fatalf("next detectable PUT = (%v, %v), want applied", applied, err)
	}
	if st := h.srv.Stats(); st.Errors != 1 {
		t.Fatalf("server counted %d errors, want 1", st.Errors)
	}
}

// TestServerCrashRestartDetectableRetries is the end-to-end exactly-once
// scenario from the issue: remote clients hammer detectable puts over real
// sockets until a simulated power failure kills the server mid-traffic; the
// store crashes and recovers, a fresh server incarnation comes up, and each
// client probes WasApplied and retries its in-flight request. The whole
// socket-level history — completed ops, in-flight ops as pending, original
// attempt and retry sharing a DupID, observer reads between — must pass
// lincheck.CheckDurable, and the receipt table must witness every sequence
// exactly once.
func TestServerCrashRestartDetectableRetries(t *testing.T) {
	for fail := int64(60); fail <= 400; fail += 85 {
		t.Run(fmt.Sprintf("fail-%d", fail), func(t *testing.T) {
			runCrashRetryRound(t, fail)
		})
	}
}

type netPending struct {
	client, seq uint64
	key, val    uint64
	dup         uint64
}

func runCrashRetryRound(t *testing.T, fail int64) {
	const workers = 2
	const opsPerWorker = 40
	h := newHarness(t, harnessConfig{shards: 4, threads: workers + 1, mode: pmem.Strict})

	var clock atomic.Int64
	histories := make([][]lincheck.DurableOp, workers)
	retries := make([]*netPending, workers)
	// Every worker connects before the failure is armed: a worker dialing
	// after the other had already tripped the server would fail to connect
	// to a server that behaved correctly.
	clients := make([]*load.Client, workers)
	for w := range clients {
		clients[w] = h.dial(uint64(w + 1))
	}
	h.g.InjectFailure(fail)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			client := uint64(tid + 1)
			cl := clients[tid]
			defer cl.Close()
			seq := uint64(0)
			for i := 0; i < opsPerWorker; i++ {
				key := uint64(tid*opsPerWorker+i)%netKeys + 1
				val := uint64(tid*opsPerWorker+i) + 1
				isPut := i%4 != 3
				op := lincheck.Op{Thread: tid, Kind: "get", Arg: key}
				var dupID uint64
				op.Call = clock.Add(1)
				var opErr error
				if isPut {
					seq++
					op.Kind, op.Arg2 = "put", val
					dupID = client<<32 | seq
					_, _, opErr = cl.PutDetectable(seq, netKey(key), netVal(val))
				} else {
					var v []byte
					var ok bool
					v, ok, opErr = cl.Get(netKey(key))
					if opErr == nil {
						op.Result = decodeNetVal(t, v, ok)
					}
				}
				if opErr != nil {
					// The connection died under us: the op is in flight at
					// the crash. Its Return is stamped below.
					histories[tid] = append(histories[tid],
						lincheck.DurableOp{Op: op, Pending: true, DupID: dupID})
					if isPut {
						retries[tid] = &netPending{client: client, seq: seq, key: key, val: val, dup: dupID}
					}
					return
				}
				op.Return = clock.Add(1)
				histories[tid] = append(histories[tid], lincheck.DurableOp{Op: op, DupID: dupID})
			}
		}(w)
	}
	wg.Wait()

	crashStamp := clock.Add(1)
	var history []lincheck.DurableOp
	anyPending := false
	for _, hops := range histories {
		for _, op := range hops {
			if op.Pending {
				op.Return = crashStamp
				anyPending = true
			}
			history = append(history, op)
		}
	}
	if !anyPending {
		// The workload finished before the armed failure fired; nothing to
		// crash-test at this threshold.
		t.Logf("fail=%d: workload completed before the failure armed", fail)
		h.g.InjectFailure(-1)
		return
	}

	// The power failure tripped the server; crash the persistent state and
	// bring up a fresh incarnation on a new port.
	h.awaitFailure()
	h.restartAfterCrash(pmem.CrashConservative)

	observe := func(cl *load.Client) {
		for k := uint64(1); k <= netKeys; k++ {
			op := lincheck.Op{Thread: workers, Kind: "get", Arg: k}
			op.Call = clock.Add(1)
			v, ok, err := cl.Get(netKey(k))
			if err != nil {
				t.Fatalf("observer get: %v", err)
			}
			op.Result = decodeNetVal(t, v, ok)
			op.Return = clock.Add(1)
			history = append(history, lincheck.DurableOp{Op: op})
		}
	}

	// Observer reads pin each in-flight attempt's fate BEFORE the retries,
	// then every crashed client reconnects and retries its request.
	obs := h.dial(0)
	defer obs.Close()
	observe(obs)
	for _, r := range retries {
		if r == nil {
			continue
		}
		cl := h.dial(r.client)
		probe, err := cl.WasApplied(r.seq)
		if err != nil {
			t.Fatalf("WasApplied probe: %v", err)
		}
		op := lincheck.Op{Thread: workers, Kind: "put", Arg: r.key, Arg2: r.val}
		op.Call = clock.Add(1)
		applied, _, err := cl.PutDetectable(r.seq, netKey(r.key), netVal(r.val))
		op.Return = clock.Add(1)
		if err != nil {
			t.Fatalf("retry: %v", err)
		}
		if applied == probe {
			t.Fatalf("fail=%d: retry of (%d,%d) applied=%v with prior receipt=%v",
				fail, r.client, r.seq, applied, probe)
		}
		if applied {
			history = append(history, lincheck.DurableOp{Op: op, DupID: r.dup})
		}

		// Exactly-once witnessed by the receipt table over the wire: every
		// sequence this client ever issued is now applied exactly once, and
		// an immediate duplicate retry must dedup.
		receipts, maxSeq, acked, err := cl.DetectStats()
		if err != nil {
			t.Fatalf("detect stats: %v", err)
		}
		if maxSeq != r.seq || receipts != r.seq-acked {
			t.Fatalf("fail=%d client %d: DetectStats (receipts %d, maxSeq %d, acked %d) after retrying seq %d",
				fail, r.client, receipts, maxSeq, acked, r.seq)
		}
		if dup, _, _ := cl.PutDetectable(r.seq, netKey(r.key), netVal(r.val)); dup {
			t.Fatalf("fail=%d client %d: duplicate retry of seq %d re-applied", fail, r.client, r.seq)
		}
		cl.Close()
	}
	observe(obs)

	if !lincheck.CheckDurable(lincheck.KVModel{}, history) {
		for _, op := range history {
			t.Logf("t%d [%d,%d] %s(%d,%d) = %d pending=%v dup=%d",
				op.Thread, op.Call, op.Return, op.Kind, op.Arg, op.Arg2, op.Result, op.Pending, op.DupID)
		}
		t.Fatalf("fail=%d: socket-level history is not durably linearizable", fail)
	}
}
