package load

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/wire"
)

// RunConfig parameterizes one load cell: a workload mix driven over Conns
// pipelined connections against a running server, either open-loop at an
// offered arrival rate or closed-loop (each connection keeps its pipeline
// window full).
type RunConfig struct {
	Addr     string
	Mix      Mix
	Conns    int
	Duration time.Duration
	// Rate is the total offered load in ops/s across all connections,
	// generated open-loop: arrivals are scheduled by a Poisson process that
	// does not wait for completions, so queueing delay shows up in the
	// client-observed latency instead of silently throttling the load.
	// Zero selects closed-loop mode.
	Rate float64
	// Keys is the preloaded key-space size; ValueSize the written payload.
	Keys      int
	ValueSize int
	// Theta is the zipfian skew (default 0.99).
	Theta float64
	// Window caps in-flight logical operations per connection (default 64).
	// An open-loop cell whose server falls behind degrades to window-bound
	// once the cap is hit — visible as achieved < offered.
	Window int
	// ClientBase numbers the per-connection HELLO client ids
	// (ClientBase+1 ... ClientBase+Conns); they must be distinct across
	// concurrent kvload runs against one server.
	ClientBase uint64
	Seed       int64
}

// Result is one cell's measurement.
type Result struct {
	Workload string
	Offered  float64 // requested arrival rate (0 in closed-loop mode)
	Achieved float64 // completed ops/s
	Ops      uint64
	Errors   uint64
	// Client-observed latency: for open-loop cells, measured from the
	// scheduled arrival time (queueing included); closed-loop from send.
	ClientP50, ClientP99 time.Duration
	// Generator lateness (open-loop cells; zero closed-loop): send time
	// minus scheduled arrival. The issuing goroutine sleeps to each
	// arrival, so a coarse timer shows up here rather than in the server,
	// and ClientP50 minus LateP50 is what the request itself cost.
	LateP50, LateP99 time.Duration
	// Server-side service time over the cell, from the server's STATS
	// histograms (reset at cell start).
	ServerP50, ServerP99 time.Duration
	ServerOps            uint64
	// Shards is the served store's shard count, from STATS.
	Shards int
}

// Preload fills the key space with ValueSize-byte values through WRITEBATCH
// frames on one connection.
func Preload(addr string, keys, valueSize int) error {
	cl, err := Dial(addr, 0)
	if err != nil {
		return err
	}
	defer cl.Close()
	rng := rand.New(rand.NewSource(1))
	val := make([]byte, valueSize)
	const per = 128
	for base := 0; base < keys; base += per {
		var ops []BatchOp
		for k := base; k < keys && k < base+per; k++ {
			rng.Read(val)
			ops = append(ops, BatchOp{
				Key: KeyBytes(nil, uint64(k)),
				Val: append([]byte(nil), val...),
			})
		}
		if _, err := cl.Write(ops); err != nil {
			return fmt.Errorf("preload batch at %d: %w", base, err)
		}
	}
	return nil
}

// inflight describes one issued logical operation awaiting its responses.
type inflight struct {
	arrival time.Time // latency zero point (scheduled arrival or send time)
	frames  int       // responses to consume (2 for RMW, else 1)
	rmw     bool
}

// connWorker drives one pipelined connection: the issuing half paces
// arrivals and writes request frames, the reading half (a second goroutine)
// consumes in-order responses and records latency. The bounded channel
// between them is the pipeline window.
type connWorker struct {
	cfg    *RunConfig
	client uint64
	zipf   *Zipf
	rng    *rand.Rand

	c   net.Conn
	bw  *wireWriter
	dec *wire.Decoder

	inflight chan inflight
	lat      *obs.Histogram
	late     *obs.Histogram // send time minus scheduled arrival (issuing half)
	ops      atomic.Uint64
	errs     atomic.Uint64
	seq      uint64 // detectable sequence (RMW mixes)
	applied  uint64 // detectable puts acknowledged as applied (reader side)
	lastKey  []byte // last detectable request's exact bytes, for the
	lastVal  []byte // dedup retry probe (receipts digest-check reuses)
}

// wireWriter is the minimal buffered frame writer the issuing half owns
// (bufio.Writer would share no state with the reading half either, but an
// explicit byte slice makes the flush points visible).
type wireWriter struct {
	c   net.Conn
	buf []byte
}

func (w *wireWriter) append(f *wire.Frame) { w.buf = wire.AppendFrame(w.buf, f) }

func (w *wireWriter) flush() error {
	if len(w.buf) == 0 {
		return nil
	}
	_, err := w.c.Write(w.buf)
	w.buf = w.buf[:0]
	return err
}

// Run executes one load cell. The server's stats are reset at cell start so
// the reported server-side percentiles cover exactly this cell.
func Run(cfg RunConfig) (Result, error) {
	if cfg.Conns <= 0 {
		cfg.Conns = 1
	}
	if cfg.Window <= 0 {
		cfg.Window = 64
	}
	if cfg.Theta == 0 {
		cfg.Theta = 0.99
	}
	if cfg.Keys <= 0 {
		cfg.Keys = 1000
	}
	if cfg.ValueSize <= 0 {
		cfg.ValueSize = 100
	}
	res := Result{Workload: cfg.Mix.Name, Offered: cfg.Rate}

	// Control connection: reset server stats at cell start, snapshot at end.
	ctl, err := Dial(cfg.Addr, 0)
	if err != nil {
		return res, err
	}
	defer ctl.Close()
	if _, err := ctl.StatsReset(); err != nil {
		return res, fmt.Errorf("stats reset: %w", err)
	}

	zetan := Zetan(uint64(cfg.Keys), cfg.Theta)
	workers := make([]*connWorker, cfg.Conns)
	for i := range workers {
		c, err := net.Dial("tcp", cfg.Addr)
		if err != nil {
			return res, err
		}
		rng := rand.New(rand.NewSource(cfg.Seed + int64(i)*7919))
		workers[i] = &connWorker{
			cfg:      &cfg,
			client:   cfg.ClientBase + uint64(i) + 1,
			zipf:     NewZipf(rng, uint64(cfg.Keys), cfg.Theta, zetan),
			rng:      rng,
			c:        c,
			bw:       &wireWriter{c: c},
			dec:      wire.NewDecoder(c, wire.Limits{}),
			inflight: make(chan inflight, cfg.Window),
			lat:      &obs.Histogram{},
			late:     &obs.Histogram{},
		}
	}

	var wg sync.WaitGroup
	errc := make(chan error, cfg.Conns)
	for _, w := range workers {
		wg.Add(1)
		go func(w *connWorker) {
			defer wg.Done()
			if err := w.run(); err != nil {
				errc <- err
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	for _, w := range workers {
		w.c.Close()
	}
	if err := <-errc; err != nil {
		return res, err
	}

	// Merge client-side results.
	all, late := &obs.Histogram{}, &obs.Histogram{}
	for _, w := range workers {
		res.Ops += w.ops.Load()
		res.Errors += w.errs.Load()
		w.lat.MergeInto(all)
		w.late.MergeInto(late)
	}
	res.Achieved = float64(res.Ops) / cfg.Duration.Seconds()
	res.ClientP50 = all.Quantile(0.50)
	res.ClientP99 = all.Quantile(0.99)
	res.LateP50 = late.Quantile(0.50)
	res.LateP99 = late.Quantile(0.99)

	// Server-side percentiles for the cell.
	raw, err := ctl.Stats()
	if err != nil {
		return res, fmt.Errorf("stats: %w", err)
	}
	var snap struct {
		Shards int    `json:"shards"`
		Ops    uint64 `json:"ops"`
		All    struct {
			P50Ns int64 `json:"p50_ns"`
			P99Ns int64 `json:"p99_ns"`
		} `json:"all"`
		Errors uint64 `json:"errors"`
	}
	if err := json.Unmarshal(raw, &snap); err != nil {
		return res, fmt.Errorf("stats json: %w", err)
	}
	res.ServerOps = snap.Ops
	res.Shards = snap.Shards
	res.ServerP50 = time.Duration(snap.All.P50Ns)
	res.ServerP99 = time.Duration(snap.All.P99Ns)
	res.Errors += snap.Errors
	return res, nil
}

// run is the issuing half of one connection; it spawns the reading half.
func (w *connWorker) run() error {
	cfg := w.cfg
	// HELLO before traffic so detectable writes carry a client id.
	hello := wire.Frame{Op: wire.OpHello, ReqID: 1, Aux: w.client}
	w.bw.append(&hello)
	if err := w.bw.flush(); err != nil {
		return err
	}
	var resp wire.Frame
	if err := w.dec.ReadFrame(&resp); err != nil {
		return fmt.Errorf("hello: %w", err)
	}

	readErr := make(chan error, 1)
	go func() { readErr <- w.readLoop() }()

	var (
		start    = time.Now()
		deadline = start.Add(cfg.Duration)
		// Per-connection Poisson arrivals at rate/conns.
		openLoop = cfg.Rate > 0
		perConn  = cfg.Rate / float64(cfg.Conns)
		next     = start
		key      = make([]byte, 0, 24)
		val      = make([]byte, cfg.ValueSize)
		sendErr  error
	)
	for sendErr == nil {
		now := time.Now()
		if now.After(deadline) {
			break
		}
		arrival := now
		if openLoop {
			if next.After(now) {
				// Nothing due: flush so the server answers what we owe, then
				// sleep to the next arrival.
				if sendErr = w.bw.flush(); sendErr != nil {
					break
				}
				time.Sleep(next.Sub(now))
			}
			arrival = next
			next = next.Add(time.Duration(w.rng.ExpFloat64() / perConn * float64(time.Second)))
			if arrival.After(deadline) {
				break
			}
		}
		op := w.buildOp(key, val)
		op.arrival = arrival
		if openLoop {
			w.late.Observe(time.Since(arrival))
		}
		select {
		case w.inflight <- op:
		default:
			// Window full: flush what we owe the server, then block until
			// the reader drains a slot.
			if sendErr = w.bw.flush(); sendErr != nil {
				break
			}
			w.inflight <- op
		}
		if !openLoop || len(w.bw.buf) >= 1<<14 {
			sendErr = w.bw.flush()
		}
	}
	if sendErr == nil {
		sendErr = w.bw.flush()
	}
	close(w.inflight)
	if err := <-readErr; err != nil {
		return err
	}
	if sendErr != nil {
		return sendErr
	}
	return w.verifyExactlyOnce()
}

// buildOp appends one logical operation's request frames and returns its
// in-flight record. keyBuf/valBuf are reused scratch — AppendFrame copies.
func (w *connWorker) buildOp(keyBuf, valBuf []byte) inflight {
	k := w.zipf.Next()
	keyBuf = KeyBytes(keyBuf[:0], k)
	read := w.rng.Intn(100) < w.cfg.Mix.ReadPct
	switch {
	case read:
		w.bw.append(&wire.Frame{Op: wire.OpGet, ReqID: 2, Key: keyBuf})
		return inflight{frames: 1}
	case w.cfg.Mix.RMW:
		// Read-modify-write: GET then detectable PUT pipelined behind it.
		w.rng.Read(valBuf)
		w.seq++
		w.bw.append(&wire.Frame{Op: wire.OpGet, ReqID: 2, Key: keyBuf})
		w.bw.append(&wire.Frame{
			Op: wire.OpPut, Flags: wire.FlagDetectable,
			ReqID: w.seq, Key: keyBuf, Val: valBuf,
		})
		// The dedup retry probe must re-send these exact bytes: the receipt
		// table digest-checks a reused sequence number.
		w.lastKey = append(w.lastKey[:0], keyBuf...)
		w.lastVal = append(w.lastVal[:0], valBuf...)
		return inflight{frames: 2, rmw: true}
	default:
		w.rng.Read(valBuf)
		w.bw.append(&wire.Frame{Op: wire.OpPut, ReqID: 2, Key: keyBuf, Val: valBuf})
		return inflight{frames: 1}
	}
}

// readLoop is the reading half: consume each in-flight record's responses
// in order, record its latency at the last one, and classify statuses. On a
// read failure it keeps draining the window so the issuing half never
// blocks against a dead reader.
func (w *connWorker) readLoop() error {
	var resp wire.Frame
	var failed error
	for op := range w.inflight {
		if failed != nil {
			continue
		}
		for i := 0; i < op.frames; i++ {
			if err := w.dec.ReadFrame(&resp); err != nil {
				failed = fmt.Errorf("read response: %w", err)
				break
			}
			switch resp.Status() {
			case wire.StatusOK:
				if op.rmw && resp.Op == wire.OpPut|wire.RespBit {
					w.applied++
				}
			case wire.StatusNotFound:
				// A GET miss is legal; NotFound on anything else is not.
				if resp.Op != wire.OpGet|wire.RespBit {
					w.errs.Add(1)
				}
			default:
				// StatusDup on a first send, or a server-side error.
				w.errs.Add(1)
			}
		}
		if failed == nil {
			w.lat.Observe(time.Since(op.arrival))
			w.ops.Add(1)
		}
	}
	return failed
}

// verifyExactlyOnce closes the loop on the detectable traffic this
// connection issued: the server's receipt table must have seen exactly our
// seq range with every request applied once, and re-sending the last
// request must dedup, not re-apply. Violations count as cell errors — the
// "zero errors" acceptance covers exactly-once.
func (w *connWorker) verifyExactlyOnce() error {
	if w.seq == 0 {
		return nil
	}
	// The connection is already HELLOed and quiescent; drive it
	// synchronously from here, reusing the pipeline's decoder so no
	// buffered byte is stranded.
	cl := &Client{c: w.c, bw: bufio.NewWriterSize(w.c, 1<<12), dec: w.dec, client: w.client}
	receipts, maxSeq, _, err := cl.DetectStats()
	if err != nil {
		return fmt.Errorf("detect stats: %w", err)
	}
	if maxSeq != w.seq || receipts != w.applied {
		w.errs.Add(1)
	}
	applied, _, err := cl.PutDetectable(w.seq, w.lastKey, w.lastVal)
	if err != nil {
		return fmt.Errorf("retry probe: %w", err)
	}
	if applied {
		// The retry re-applied: a duplicated effect, the exactly-once bug.
		w.errs.Add(1)
	}
	return nil
}
