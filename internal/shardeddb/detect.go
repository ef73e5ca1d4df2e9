package shardeddb

import "repro/internal/redodb"

// Detectable writes on the sharded front-end (Apply with
// WriteOptions.Client set). A single-shard batch inherits RedoDB's
// exactly-once path unchanged: the receipt lives on the batch's shard,
// recorded inside the same wait-free transaction as the operation.
// Cross-shard batches anchor their receipt on the client's home shard
// (chosen by client id, so a retry probes the same place no matter which
// keys the batch touches) and carry the receipt identity in the coordinator
// intent, so a roll-forward after a crash re-records it atomically with the
// home shard's sub-batch — the batch commits exactly once whether it is
// finished by recovery, by the retry, or by both racing across crashes.
//
// Contract (as in redodb): client ids and seqs are nonzero, seqs strictly
// increase per client, and a retry re-issues the identical operation. A seq
// re-used for a different operation on the same shard returns
// redodb.ErrSeqReused via the digest check; re-use that changes which shard
// the operation routes to is undetectable by construction (the receipt is
// on the original shard) and remains a client bug.

// homeShard maps a client id to the shard whose dedup table anchors its
// cross-shard receipts. The remix decorrelates home shards from sequential
// client ids.
func (db *DB) homeShard(client uint64) int {
	return int((client * 0x9e3779b97f4a7c15 >> 33) % uint64(len(db.shards)))
}

// batchDigest fingerprints the full cross-shard batch. Every path that
// receipts a batch — first attempt, retry, roll-forward — derives the digest
// from the same op list, so they agree on the request's identity.
func batchDigest(ops []batchOp) uint64 {
	rb := &redodb.WriteBatch{}
	for _, op := range ops {
		if op.del {
			rb.Delete(op.key)
		} else {
			rb.Put(op.key, op.val)
		}
	}
	return redodb.BatchDigest(rb)
}

// WasApplied reports whether request (client, seq) committed on any shard —
// the recovery probe a crashed or timed-out caller issues before retrying.
func (s *Session) WasApplied(client, seq uint64) bool {
	for _, sh := range s.sess {
		if sh.WasApplied(client, seq) {
			return true
		}
	}
	return false
}

// AckApplied advances the client's acked watermark on every shard, bounding
// each shard's dedup table by the client's unacked window.
func (s *Session) AckApplied(client, upto uint64) {
	for _, sh := range s.sess {
		sh.AckApplied(client, upto)
	}
}

// DetectStats sums the client's exactly-once witness across shards: total
// receipts (operations applied), the highest receipted seq, and the acked
// watermark (the same on every shard, since AckApplied broadcasts).
func (s *Session) DetectStats(client uint64) (receipts, maxSeq, acked uint64) {
	for _, sh := range s.sess {
		r, mx, a := sh.DetectStats(client)
		receipts += r
		if mx > maxSeq {
			maxSeq = mx
		}
		if a > acked {
			acked = a
		}
	}
	return receipts, maxSeq, acked
}
