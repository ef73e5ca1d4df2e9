package server

import (
	"bufio"
	"net"
	"time"

	"repro/internal/shardeddb"
	"repro/internal/wire"
)

// conn is one connection's state: a frame decoder whose scratch buffers the
// handlers borrow, a buffered writer (slow readers block here — per-connection
// backpressure that never touches other connections), the HELLO-declared
// client identity, and the reused arena WriteBatch that consecutive plain
// PUTs accumulate into.
type conn struct {
	srv  *Server
	c    net.Conn
	sess *shardeddb.Session
	dec  *wire.Decoder
	bw   *bufio.Writer

	client uint64 // HELLO aux; zero until declared

	batch       shardeddb.WriteBatch
	pending     []pendingPut
	needDurable bool
	touched     []int // shards of the write being handled (scratch)

	payload []byte // response payload scratch (scan, stats)
}

// pendingPut is a batched PUT awaiting its deferred in-order response.
type pendingPut struct {
	reqID uint64
	shard int
	start time.Time
}

func newConn(s *Server, c net.Conn, sess *shardeddb.Session) *conn {
	return &conn{
		srv:  s,
		c:    c,
		sess: sess,
		dec:  wire.NewDecoder(c, s.opts.Limits),
		bw:   bufio.NewWriterSize(c, 1<<16),
	}
}

// run is the connection loop: decode a frame, handle it, and flush the write
// batch and the response buffer whenever the decoder drains (the client is
// about to block on our responses — the pipelining cue). Any decode error —
// typed malformation, mid-frame EOF, a closed socket — ends the connection;
// the stream cannot be trusted past a desynchronized frame.
func (cn *conn) run() {
	var req wire.Frame
	for {
		if err := cn.dec.ReadFrame(&req); err != nil {
			cn.flushWrites()
			cn.bw.Flush()
			return
		}
		if err := cn.handle(&req); err != nil {
			return
		}
		if cn.batch.Len() >= cn.srv.opts.MaxBatch || (cn.batch.Len() > 0 && cn.dec.Buffered() == 0) {
			if err := cn.flushWrites(); err != nil {
				return
			}
		}
		if cn.dec.Buffered() == 0 {
			if err := cn.bw.Flush(); err != nil {
				return
			}
		}
	}
}

// handle dispatches one request. Non-batchable requests flush the pending
// batch first so responses stay strictly in request order.
func (cn *conn) handle(req *wire.Frame) error {
	start := time.Now()
	if req.Op == wire.OpPut && req.Flags&wire.FlagDetectable == 0 {
		// The batchable fast path: enqueue into the arena batch (which
		// snapshots the decoder's scratch) and defer the response until the
		// flush supplies its commit epoch. A PUT that would grow the batch
		// past the coordinator's capacity flushes it first.
		if !cn.batch.Fits(req.Key, req.Val) {
			if err := cn.flushWrites(); err != nil {
				return err
			}
		}
		cn.pending = append(cn.pending, pendingPut{
			reqID: req.ReqID,
			shard: cn.sess.ShardOf(req.Key),
			start: start,
		})
		cn.batch.Put(req.Key, req.Val)
		cn.needDurable = cn.needDurable || req.Flags&wire.FlagDurable != 0
		return nil
	}
	if err := cn.flushWrites(); err != nil {
		return err
	}

	resp := wire.Frame{Op: req.Op | wire.RespBit, ReqID: req.ReqID}
	write := false
	switch req.Op {
	case wire.OpHello:
		cn.client = req.Aux
		if cn.srv.db.Buffered() {
			resp.Aux |= wire.ModeBuffered
		}

	case wire.OpGet:
		if v, ok := cn.sess.Get(req.Key); ok {
			resp.Val = v
		} else {
			resp.Flags |= uint32(wire.StatusNotFound)
		}

	case wire.OpPut, wire.OpDelete, wire.OpWrite: // plain PUTs batched above
		write = true
		if msg := cn.write(req, &resp); msg != "" {
			return cn.respondErr(&resp, start, msg)
		}

	case wire.OpScan:
		it := cn.sess.NewIterator()
		limit := int(req.Aux)
		if limit <= 0 || limit > it.Len() {
			limit = it.Len()
		}
		cn.payload = cn.payload[:0]
		n := 0
		for ok := it.Seek(req.Key); ok && n < limit; ok = it.Next() {
			cn.payload = wire.AppendScanPair(cn.payload, it.Key(), it.Value())
			n++
		}
		resp.Aux = uint64(n)
		resp.Val = cn.payload

	case wire.OpSync:
		write = true
		cn.sess.Sync()
		resp.Aux = cn.durableWatermark()

	case wire.OpWasApplied:
		if cn.client == 0 {
			return cn.respondErr(&resp, start, "WASAPPLIED without HELLO client id")
		}
		if !cn.sess.WasApplied(cn.client, req.ReqID) {
			resp.Flags |= uint32(wire.StatusNotFound)
		}

	case wire.OpAck:
		if cn.client == 0 {
			return cn.respondErr(&resp, start, "ACK without HELLO client id")
		}
		cn.sess.AckApplied(cn.client, req.Aux)
		resp.Aux = req.Aux

	case wire.OpStats:
		resp.Val = cn.srv.statsJSON()
		if req.Aux&wire.StatsReset != 0 {
			cn.srv.stats.Reset()
		}

	case wire.OpDetectStats:
		if cn.client == 0 {
			return cn.respondErr(&resp, start, "DETECTSTATS without HELLO client id")
		}
		receipts, maxSeq, acked := cn.sess.DetectStats(cn.client)
		cn.payload = wire.AppendDetectStats(cn.payload[:0], receipts, maxSeq, acked)
		resp.Val = cn.payload

	default:
		// Unreachable: the decoder rejects out-of-range opcodes, and every
		// in-range request opcode has a case above.
		return cn.respondErr(&resp, start, "unhandled opcode")
	}
	return cn.respond(&resp, start, write)
}

// write is the one write path for detectable PUTs, DELETEs and
// WRITEBATCHes: build the batch, set the options from the wire flags, commit
// once. Only a plain DELETE calls Session.Delete instead, because its
// response reports whether the key was present. It returns the message of a
// StatusErr response, or "" on success with resp's status and commit epoch
// set.
func (cn *conn) write(req, resp *wire.Frame) string {
	opts := shardeddb.WriteOptions{Sync: req.Flags&wire.FlagDurable != 0}
	if req.Flags&wire.FlagDetectable != 0 {
		if cn.client == 0 || req.ReqID == 0 {
			return "detectable " + req.Op.String() + " needs a HELLO client id and nonzero seq"
		}
		opts.Client, opts.Seq = cn.client, req.ReqID
	}
	cn.batch.Clear()
	defer cn.batch.Clear()
	cn.touched = cn.touched[:0]
	add := func(del bool, key, val []byte) {
		cn.touched = append(cn.touched, cn.sess.ShardOf(key))
		if del {
			cn.batch.Delete(key)
		} else {
			cn.batch.Put(key, val)
		}
	}
	switch req.Op {
	case wire.OpPut:
		add(false, req.Key, req.Val)
	case wire.OpDelete:
		add(true, req.Key, nil)
	default:
		if err := wire.DecodeBatch(req.Val, cn.limits(), add); err != nil {
			return err.Error()
		}
	}
	if req.Op == wire.OpDelete && opts.Client == 0 {
		if !cn.sess.Delete(req.Key) {
			resp.Flags |= uint32(wire.StatusNotFound)
		}
		if opts.Sync {
			cn.sess.Sync()
		}
	} else if applied, err := cn.sess.Apply(&cn.batch, opts); err != nil {
		return err.Error()
	} else if !applied {
		resp.Flags |= uint32(wire.StatusDup)
	}
	// Aux is the max per-shard commit epoch of the touched shards — exact
	// on a single-shard store (the buffered lincheck harness), a covering
	// watermark otherwise.
	for _, sh := range cn.touched {
		resp.Aux = max(resp.Aux, cn.sess.LastEpoch(sh))
	}
	return ""
}

// limits returns the connection's effective frame limits.
func (cn *conn) limits() wire.Limits {
	lim := cn.srv.opts.Limits
	if lim.MaxKey == 0 {
		lim.MaxKey = wire.DefaultLimits.MaxKey
	}
	if lim.MaxVal == 0 {
		lim.MaxVal = wire.DefaultLimits.MaxVal
	}
	return lim
}

// durableWatermark is the SYNC response aux: the minimum durable epoch
// across shards, below which every commit is persistent.
func (cn *conn) durableWatermark() uint64 {
	db := cn.srv.db
	if !db.Buffered() {
		return 0
	}
	min := db.DurableEpoch(0)
	for sh := 1; sh < db.Shards(); sh++ {
		if e := db.DurableEpoch(sh); e < min {
			min = e
		}
	}
	return min
}

// flushWrites applies the pending batch as one store transaction and emits
// the deferred PUT responses in order, each carrying its shard's commit
// epoch. All ops of one flush share a transaction per shard, so
// LastEpoch(shard) is exactly each op's commit epoch.
func (cn *conn) flushWrites() error {
	if cn.batch.Len() == 0 {
		return nil
	}
	// Plain writes always apply, and handle keeps the batch within
	// WriteBatch.Fits, so Apply cannot fail here.
	_, _ = cn.sess.Apply(&cn.batch, shardeddb.WriteOptions{Sync: cn.needDurable})
	cn.batch.Clear()
	cn.needDurable = false
	var resp wire.Frame
	for _, p := range cn.pending {
		resp = wire.Frame{Op: wire.OpPut | wire.RespBit, ReqID: p.reqID, Aux: cn.sess.LastEpoch(p.shard)}
		if err := cn.respond(&resp, p.start, true); err != nil {
			cn.pending = cn.pending[:0]
			return err
		}
	}
	cn.pending = cn.pending[:0]
	return nil
}

// respond writes one response frame and records its service time.
func (cn *conn) respond(resp *wire.Frame, start time.Time, write bool) error {
	err := wire.WriteFrame(cn.bw, resp)
	d := time.Since(start)
	st := &cn.srv.stats
	st.Ops.Add(1)
	st.All.Observe(d)
	if write {
		st.Write.Observe(d)
	} else {
		st.Read.Observe(d)
	}
	if resp.Status() == wire.StatusErr {
		st.Errors.Add(1)
	}
	return err
}

// respondErr answers with StatusErr and the message as the value. The
// connection survives: payload-level errors are the client's bug, not a
// stream desynchronization.
func (cn *conn) respondErr(resp *wire.Frame, start time.Time, msg string) error {
	resp.Flags = resp.Flags&^0xff | uint32(wire.StatusErr)
	resp.Val = []byte(msg)
	return cn.respond(resp, start, false)
}
