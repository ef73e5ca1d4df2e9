package shardeddb

import (
	"repro/internal/obs"
	"repro/internal/redodb"
)

// WriteBatch collects Put/Delete operations for atomic application across
// shards. Keys and values are snapshotted into a single grow-only arena the
// batch owns, so assembling a batch from a connection's frame-decode scratch
// buffers (which the next read overwrites) is safe, and a reused batch costs
// amortized zero allocations per op instead of two.
//
// Ownership contract (the per-connection reuse audit): Apply must not
// retain any reference into the batch — arena bytes included — past its
// return. It holds that contract by copying at every boundary that outlives
// the call: split() copies each op's bytes into fresh per-shard redodb
// batches (whose own Put snapshots them for helper re-execution), and the
// coordinator intent serializes the ops into its payload buffer. Clear may therefore recycle the arena
// immediately; the contract is pinned by TestWriteBatchArenaReuse and the
// pipelined-connection race smoke in internal/server. A batch still must
// not be MUTATED concurrently with a Write that was handed the same *batch*
// from another goroutine — same rule as redodb.WriteBatch.
type WriteBatch struct {
	ops []batchOp
	buf []byte // arena backing every queued key and value
}

type batchOp struct {
	key, val []byte
	del      bool
}

// own snapshots p into the batch arena. The full slice expression caps the
// returned subslice so a later arena append can never grow into it, and
// earlier subslices stay valid across arena growth because the old backing
// array is immutable once abandoned.
func (b *WriteBatch) own(p []byte) []byte {
	n := len(b.buf)
	b.buf = append(b.buf, p...)
	return b.buf[n:len(b.buf):len(b.buf)]
}

// Put queues an insertion/overwrite.
func (b *WriteBatch) Put(key, value []byte) {
	b.ops = append(b.ops, batchOp{key: b.own(key), val: b.own(value)})
}

// Delete queues a deletion.
func (b *WriteBatch) Delete(key []byte) {
	b.ops = append(b.ops, batchOp{key: b.own(key), del: true})
}

// Len reports the number of queued operations.
func (b *WriteBatch) Len() int { return len(b.ops) }

// Clear empties the batch for reuse, recycling the arena. The op headers
// are zeroed before the truncation so the retained backing array does not
// keep dropped subslice headers alive; the arena bytes themselves may be
// overwritten by the next assembly because no Write path retains them (see
// the ownership contract above).
func (b *WriteBatch) Clear() {
	clear(b.ops)
	b.ops = b.ops[:0]
	b.buf = b.buf[:0]
}

// split partitions ops into per-shard redodb batches (nil for untouched
// shards). Later ops on the same key keep their order within the shard's
// sub-batch, preserving WriteBatch's last-writer-wins semantics.
func (s *Session) split(ops []batchOp) []*redodb.WriteBatch {
	subs := make([]*redodb.WriteBatch, len(s.sess))
	for _, op := range ops {
		i := s.shardOf(op.key)
		if subs[i] == nil {
			subs[i] = &redodb.WriteBatch{}
		}
		if op.del {
			subs[i].Delete(op.key)
		} else {
			subs[i].Put(op.key, op.val)
		}
	}
	return subs
}

// WriteOptions selects how a write commits: plain, Sync (durable on
// return in buffered mode) and/or detectable (Client, Seq). It is redodb's
// option set; Tag and Digest are the coordinator's own and Apply ignores
// any value the caller puts there.
type WriteOptions = redodb.WriteOptions

// Write applies the batch atomically and durably: Apply with no options. A
// plain write always applies and cannot fail, so Apply's results are
// dropped.
func (s *Session) Write(b *WriteBatch) { _, _ = s.Apply(b, WriteOptions{}) }

// Apply applies the batch atomically under the given options, reporting
// whether this call applied it (false: a detectable write found its receipt
// and was skipped). A seq re-used for a different operation returns
// redodb.ErrSeqReused with nothing applied.
//
// A batch whose keys all live on one shard is a single RedoDB transaction —
// wait-free, no coordinator involvement — carrying the receipt when
// detectable. A cross-shard batch takes the coordinator path: publish a
// durable intent, apply the per-shard sub-batches (each tagged with the
// batch sequence number), then durably complete. A crash anywhere in between
// leaves either a completed batch or an open intent that Open rolls forward,
// so no execution ever exposes some shards' sub-batches without the others.
//
// A detectable cross-shard batch anchors its receipt on the client's home
// shard (an empty detectable batch too: it still consumes the seq) and
// carries the receipt identity in the intent, so roll-forward re-records it
// atomically with the home shard's sub-batch.
func (s *Session) Apply(b *WriteBatch, o WriteOptions) (applied bool, err error) {
	ops := make([]batchOp, len(b.ops))
	copy(ops, b.ops)
	subs := s.split(ops)
	touched, only := 0, -1
	for i, sub := range subs {
		if sub != nil {
			touched++
			only = i
		}
	}
	o.Tag, o.Digest = 0, 0
	var rcpt *intentReceipt
	if o.Client != 0 {
		o.Digest = batchDigest(ops)
		rcpt = &intentReceipt{client: o.Client, seq: o.Seq, digest: o.Digest, home: s.db.homeShard(o.Client)}
	}
	sync := o.Sync
	o.Sync = false // the session-wide barrier below covers every shard
	switch {
	case touched == 0 && rcpt != nil:
		applied, err = s.sess[rcpt.home].Apply(&redodb.WriteBatch{}, o)
	case touched == 0:
		applied = true
	case touched == 1:
		// A retry splits identically, so it probes the same shard.
		applied, err = s.sess[only].Apply(subs[only], o)
	default:
		applied, err = s.writeCrossShard(ops, subs, rcpt)
	}
	if err == nil && sync {
		s.Sync()
	}
	return applied, err
}

// writeCrossShard runs the coordinator protocol for a batch touching more
// than one shard, reporting false for a detectable batch whose receipt is
// already durable, and redodb.ErrSeqReused — before any intent is
// published — for one whose seq the home shard receipted for a different
// operation.
func (s *Session) writeCrossShard(ops []batchOp, subs []*redodb.WriteBatch, rcpt *intentReceipt) (bool, error) {
	db := s.db
	db.batchMu.Lock()
	defer db.batchMu.Unlock()
	if rcpt != nil {
		committed, err := s.sess[rcpt.home].Probe(rcpt.client, rcpt.seq, rcpt.digest)
		if err != nil {
			return false, err
		}
		if committed {
			// The receipt is durable, so the batch committed (first
			// attempt, a racing retry, or recovery's roll-forward): pure
			// dedup hit.
			db.group.Pool(0).TraceEvent(obs.KindDedupHit, -1, -1, rcpt.client, 0, rcpt.seq)
			return false, nil
		}
	}
	seq := db.nextSeq
	db.nextSeq++
	db.publishIntent(seq, encodeIntent(ops, rcpt))
	s.applySubs(subs, seq, nil, rcpt)
	// Buffered shards: the cross-shard Sync barrier. Every touched shard
	// (and the receipt's home shard) must persist its sub-batch, tag
	// included, before the intent retires — otherwise a crash after
	// completeIntent could lose some shards' volatile sub-batches with
	// nothing left to roll forward, turning an atomic batch into a torn
	// one. With the barrier, a crash loses either the whole batch (intent
	// still open → roll-forward) or nothing.
	if db.buffered {
		for i, sub := range subs {
			if sub != nil || (rcpt != nil && i == rcpt.home) {
				db.shards[i].Persist()
			}
		}
	}
	db.completeIntent(seq)
	db.lastCommitted.Store(seq)
	return true, nil
}

// applySubs applies each shard's sub-batch tagged with the batch sequence
// number seq, skipping shards whose recovered tag (tags, nil on the live
// path) shows the sub-batch already applied. With a receipt, the home
// shard's sub-batch — possibly empty: the home shard is chosen by client
// id, not by the batch's keys — carries it, so it re-records atomically
// with that sub-batch; a home shard that already holds the receipt stores
// only the tag.
func (s *Session) applySubs(subs []*redodb.WriteBatch, seq uint64, tags []uint64, rcpt *intentReceipt) {
	for i, sub := range subs {
		if tags != nil && tags[i] == seq {
			continue
		}
		o := WriteOptions{Tag: seq}
		if rcpt != nil && i == rcpt.home {
			o.Client, o.Seq, o.Digest = rcpt.client, rcpt.seq, rcpt.digest
			if sub == nil {
				sub = &redodb.WriteBatch{}
			}
		}
		if sub == nil {
			continue
		}
		if _, err := s.sess[i].Apply(sub, o); err != nil {
			// ErrSeqReused: the home shard holds this seq's receipt for
			// another operation, which only a client id driven from two
			// sessions at once can cause (the probe under batchMu saw no
			// receipt). The intent is published, so the batch must still
			// apply on every shard: apply this sub-batch unreceipted.
			_, _ = s.sess[i].Apply(sub, WriteOptions{Tag: seq})
		}
	}
}
