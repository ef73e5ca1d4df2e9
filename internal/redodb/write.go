package redodb

import (
	"bytes"
	"errors"

	"repro/internal/obs"
	"repro/internal/ptm"
)

// WriteOptions selects how a write commits. Every combination runs as ONE
// durable transaction on the one commit path (Session.commit); the zero
// value is a plain write.
type WriteOptions struct {
	// Sync returns only once the write is durable: Session.Sync after the
	// commit. A no-op in synchronous mode, where every commit is durable.
	Sync bool
	// Client, when nonzero, makes the write detectable (exactly-once) as
	// request (Client, Seq): a receipt in the request-dedup table
	// (internal/detect) commits in the same transaction as the batch, so a
	// crash persists both or neither, and a retry that finds the receipt
	// skips the batch. Client ids are nonzero and driven by one caller at a
	// time; seqs are nonzero and strictly increasing per client (a retry
	// re-uses the seq of the request it retries).
	Client, Seq uint64
	// Tag, when nonzero, is recorded in the batch-tag root slot in the same
	// transaction. The sharded front-end's coordinator tags each shard's
	// sub-batch with the cross-shard batch sequence number, so after a
	// crash the recovered tag tells exactly which sub-batches were applied.
	// The tag advances even when the receipt deduplicates the batch.
	Tag uint64
	// Digest, when nonzero, replaces BatchDigest(b) as the receipt's
	// fingerprint: the coordinator receipts a sub-batch under the digest of
	// the FULL cross-shard batch.
	Digest uint64
}

// ErrSeqReused reports a detectable write whose (Client, Seq) already
// holds a receipt for a different operation. Nothing is applied.
var ErrSeqReused = errors.New("redodb: request seq re-used for a different operation")

// Write-transaction results.
const (
	resDup      uint64 = 0 // receipt found: batch skipped
	resApplied  uint64 = 1 // batch executed (and receipted when detectable)
	resMismatch uint64 = 2 // receipt found for a different operation
	resPresent  uint64 = 4 // with resApplied: a Delete found its key
)

// Apply applies the batch as one atomic durable transaction under the given
// options. It reports whether this call applied the batch: false only when
// a detectable write found its receipt from an earlier attempt (the batch
// was skipped) or when err is ErrSeqReused.
func (s *Session) Apply(b *WriteBatch, o WriteOptions) (applied bool, err error) {
	if o.Client != 0 && o.Digest == 0 {
		o.Digest = BatchDigest(b)
	}
	// The closure may be re-run by helpers after Apply returns: snapshot the
	// arena once, so the caller may Clear and refill the batch right away.
	switch s.commit(bytes.Clone(b.rep), o) & (resApplied | resMismatch) {
	case resMismatch:
		return false, ErrSeqReused
	case resDup:
		return false, nil
	}
	return true, nil
}

// commit is the one write transaction: the optional receipt probe, the ops
// encoded in rep (a private snapshot: a batch's arena, or the single op of
// Put or Delete), the optional receipt record, then the optional tag. Persistent effects
// per path: a plain write issues exactly its ops' stores; the receipt and
// the tag add their own stores only when requested.
func (s *Session) commit(rep []byte, o WriteOptions) uint64 {
	res := s.db.eng.Update(s.tid, func(m ptm.Mem) uint64 {
		r := resApplied
		if o.Client != 0 {
			if r = probeReceipt(m, o.Client, o.Seq, o.Digest); r == resMismatch {
				return r
			}
		}
		if r == resApplied {
			forEach(rep, func(key, value []byte, del bool) {
				r |= applyOp(m, key, value, del)
			})
			if o.Client != 0 {
				dedup.Record(m, o.Client, o.Seq, o.Digest)
			}
		}
		if o.Tag != 0 {
			m.Store(tagRoot, o.Tag)
		}
		return r
	})
	if o.Client != 0 {
		switch res & (resApplied | resMismatch) {
		case resApplied:
			s.db.pool.TraceEvent(obs.KindReceipt, s.tid, -1, o.Client, 0, o.Seq)
		case resDup:
			s.db.pool.TraceEvent(obs.KindDedupHit, s.tid, -1, o.Client, 0, o.Seq)
		}
	}
	if o.Sync && res != resMismatch {
		s.Sync()
	}
	return res
}

// probeReceipt checks the dedup table for request (client, seq) with the
// given receipt digest: resApplied when no receipt exists (the request may
// apply), resDup when its receipt is durable (an acked seq, whose digest is
// retired, counts as a dup), resMismatch when the seq holds a receipt for a
// different operation.
func probeReceipt(m ptm.Mem, client, seq, digest uint64) uint64 {
	d, ok := dedup.Lookup(m, client, seq)
	switch {
	case !ok:
		return resApplied
	case d != 0 && d != digest:
		return resMismatch
	}
	return resDup
}

// applyOp executes one op inside an update transaction, returning
// resPresent when a Delete removed an existing key.
func applyOp(m ptm.Mem, key, value []byte, del bool) uint64 {
	if !del {
		putLocked(m, key, value)
		return 0
	}
	return deleteLocked(m, key) * resPresent
}

// TagAt returns the last batch tag recorded by a write with
// WriteOptions.Tag set (0 if never written).
func (s *Session) TagAt() uint64 {
	return s.db.eng.Read(s.tid, func(m ptm.Mem) uint64 {
		return m.Load(tagRoot)
	})
}
