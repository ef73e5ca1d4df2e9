package shardeddb

import (
	"repro/internal/obs"
	"repro/internal/redodb"
)

// WriteBatch is RedoDB's batch, so a caller builds one type for either
// store. Apply keeps its ownership contract (see redodb.WriteBatch) by
// copying at every boundary that outlives the call: split copies the ops
// into the session's per-shard sub-batches, each shard's Apply snapshots its
// sub-batch, and the coordinator intent serializes the ops into its payload.
type WriteBatch = redodb.WriteBatch

// Fits reports whether b, after b.Put(key, value), still fits the
// coordinator region as a plain cross-shard batch — the capacity past which
// Apply returns ErrBatchTooLarge. A plain intent is one flags word followed
// by the batch's encoding (encodeIntent), which is b.Size() bytes plus the
// put's own 24 header bytes, key and value.
func Fits(b *WriteBatch, key, value []byte) bool {
	return 8+b.Size()+24+len(key)+len(value) <= maxBatchBytes
}

// split partitions b's ops into the session's per-shard sub-batches, which
// are reused across calls (an untouched shard's sub-batch is empty), and
// reports how many shards the batch touches and the last of them. Later ops
// on the same key keep their order within the shard's sub-batch, preserving
// WriteBatch's last-writer-wins semantics.
func (s *Session) split(b *WriteBatch) (touched, only int) {
	for i := range s.subs {
		s.subs[i].Clear()
	}
	b.Each(func(key, value []byte, del bool) {
		sub := &s.subs[s.shardOf(key)]
		if del {
			sub.Delete(key)
		} else {
			sub.Put(key, value)
		}
	})
	only = -1
	for i := range s.subs {
		if s.subs[i].Len() > 0 {
			touched++
			only = i
		}
	}
	return touched, only
}

// WriteOptions selects how a write commits: plain, Sync (durable on
// return in buffered mode) and/or detectable (Client, Seq). It is redodb's
// option set; Tag and Digest are the coordinator's own and Apply ignores
// any value the caller puts there.
type WriteOptions = redodb.WriteOptions

// Write applies the batch atomically and durably: Apply with no options. A
// plain write always applies; the one error it can meet, ErrBatchTooLarge,
// is a caller bug here and panics (Apply returns it instead).
func (s *Session) Write(b *WriteBatch) {
	if _, err := s.Apply(b, WriteOptions{}); err != nil {
		panic(err)
	}
}

// Apply applies the batch atomically under the given options, reporting
// whether this call applied it (false: a detectable write found its receipt
// and was skipped). A seq re-used for a different operation returns
// redodb.ErrSeqReused, and a cross-shard batch too large for the
// coordinator region ErrBatchTooLarge, both with nothing applied.
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
	touched, only := s.split(b)
	o.Tag, o.Digest = 0, 0
	var rcpt *intentReceipt
	if o.Client != 0 {
		o.Digest = redodb.BatchDigest(b)
		rcpt = &intentReceipt{client: o.Client, seq: o.Seq, digest: o.Digest, home: s.db.homeShard(o.Client)}
	}
	sync := o.Sync
	o.Sync = false // the session-wide barrier below covers every shard
	switch {
	case touched == 0 && rcpt != nil:
		applied, err = s.sess[rcpt.home].Apply(&s.subs[rcpt.home], o)
	case touched == 0:
		applied = true
	case touched == 1:
		// A retry splits identically, so it probes the same shard.
		applied, err = s.sess[only].Apply(&s.subs[only], o)
	default:
		applied, err = s.writeCrossShard(b, rcpt)
	}
	if err == nil && sync {
		s.Sync()
	}
	return applied, err
}

// writeCrossShard runs the coordinator protocol for a batch touching more
// than one shard, reporting false for a detectable batch whose receipt is
// already durable, and — before any intent is published —
// ErrBatchTooLarge for a batch the coordinator region cannot hold and
// redodb.ErrSeqReused for one whose seq the home shard receipted for a
// different operation.
func (s *Session) writeCrossShard(b *WriteBatch, rcpt *intentReceipt) (bool, error) {
	payload := encodeIntent(b, rcpt)
	if len(payload) > maxBatchBytes {
		return false, ErrBatchTooLarge
	}
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
	db.publishIntent(seq, payload)
	s.applySubs(seq, nil, rcpt)
	// Buffered shards: the cross-shard Sync barrier. Every touched shard
	// (and the receipt's home shard) must persist its sub-batch, tag
	// included, before the intent retires — otherwise a crash after
	// completeIntent could lose some shards' volatile sub-batches with
	// nothing left to roll forward, turning an atomic batch into a torn
	// one. With the barrier, a crash loses either the whole batch (intent
	// still open → roll-forward) or nothing.
	if db.buffered {
		for i := range s.subs {
			if s.subs[i].Len() > 0 || (rcpt != nil && i == rcpt.home) {
				db.shards[i].Persist()
			}
		}
	}
	db.completeIntent(seq)
	db.lastCommitted.Store(seq)
	return true, nil
}

// applySubs applies each shard's sub-batch (as split left them) tagged with
// the batch sequence number seq, skipping shards whose recovered tag (tags,
// nil on the live path) shows the sub-batch already applied. With a
// receipt, the home shard's sub-batch — possibly empty: the home shard is
// chosen by client id, not by the batch's keys — carries it, so it
// re-records atomically with that sub-batch; a home shard that already
// holds the receipt stores only the tag.
func (s *Session) applySubs(seq uint64, tags []uint64, rcpt *intentReceipt) {
	for i := range s.subs {
		sub := &s.subs[i]
		if tags != nil && tags[i] == seq {
			continue
		}
		o := WriteOptions{Tag: seq}
		if rcpt != nil && i == rcpt.home {
			o.Client, o.Seq, o.Digest = rcpt.client, rcpt.seq, rcpt.digest
		} else if sub.Len() == 0 {
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
