package redodb

import (
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
	resPresent  uint64 = 4 // with resApplied: the single Delete found its key
)

// Apply applies the batch as one atomic durable transaction under the given
// options. It reports whether this call applied the batch: false only when
// a detectable write found its receipt from an earlier attempt (the batch
// was skipped) or when err is ErrSeqReused.
func (s *Session) Apply(b *WriteBatch, o WriteOptions) (applied bool, err error) {
	if o.Client != 0 && o.Digest == 0 {
		o.Digest = BatchDigest(b)
	}
	switch s.commit(b.clone(), batchOp{}, o) & (resApplied | resMismatch) {
	case resMismatch:
		return false, ErrSeqReused
	case resDup:
		return false, nil
	}
	return true, nil
}

// commit is the one write transaction: the optional receipt probe, the ops
// (ops, or the single op one when ops is nil — Put and Delete keep their
// op in the closure instead of a one-element slice, saving an allocation),
// the optional receipt record, then the optional tag. Persistent effects
// per path: a plain write issues exactly its ops' stores; the receipt and
// the tag add their own stores only when requested.
func (s *Session) commit(ops []batchOp, one batchOp, o WriteOptions) uint64 {
	res := s.db.eng.Update(s.tid, func(m ptm.Mem) uint64 {
		r := resApplied
		if o.Client != 0 {
			if d, ok := dedup.Lookup(m, o.Client, o.Seq); ok {
				r = resDup
				if d != 0 && d != o.Digest {
					return resMismatch
				}
			}
		}
		if r == resApplied {
			if ops == nil {
				r |= applyOp(m, one)
			}
			for _, op := range ops {
				applyOp(m, op)
			}
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

// applyOp executes one op inside an update transaction, returning
// resPresent when a Delete removed an existing key.
func applyOp(m ptm.Mem, op batchOp) uint64 {
	if !op.del {
		putLocked(m, op.key, op.val)
		return 0
	}
	return deleteLocked(m, op.key) * resPresent
}

// TagAt returns the last batch tag recorded by a write with
// WriteOptions.Tag set (0 if never written).
func (s *Session) TagAt() uint64 {
	return s.db.eng.Read(s.tid, func(m ptm.Mem) uint64 {
		return m.Load(tagRoot)
	})
}
