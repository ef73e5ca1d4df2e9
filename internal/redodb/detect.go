package redodb

import (
	"repro/internal/detect"
	"repro/internal/ptm"
)

// Detectable writes (exactly-once semantics) are writes with
// WriteOptions.Client set: the receipt commits inside the write's own
// durable transaction (see Session.commit), so a crash persists both the
// operation and its receipt or neither. A retry of a committed request finds
// the receipt and is skipped, and WasApplied answers "did request (client,
// seq) commit?" after any crash. Re-using a seq for a *different* operation
// is caught by the receipt's result digest and reported as ErrSeqReused.

// Operation tags folded into receipt digests.
const (
	opPut uint64 = iota + 1
	opDelete
	opBatch
)

// WasApplied reports whether request (client, seq) committed: true iff a
// detectable operation with that identity has a durable receipt (or was
// acked). This is the recovery question — after a crash or timeout the
// caller probes WasApplied before retrying.
func (s *Session) WasApplied(client, seq uint64) bool {
	return s.db.eng.Read(s.tid, func(m ptm.Mem) uint64 {
		if dedup.Applied(m, client, seq) {
			return 1
		}
		return 0
	}) == 1
}

// Probe is Apply's receipt check run alone, applying nothing: it reports
// whether request (client, seq) with receipt digest digest already
// committed, or ErrSeqReused if the seq holds a receipt for a different
// operation. The sharded front-end's coordinator probes the home shard with
// it before publishing a cross-shard intent.
func (s *Session) Probe(client, seq, digest uint64) (committed bool, err error) {
	switch s.db.eng.Read(s.tid, func(m ptm.Mem) uint64 {
		return probeReceipt(m, client, seq, digest)
	}) {
	case resMismatch:
		return false, ErrSeqReused
	case resDup:
		return true, nil
	}
	return false, nil
}

// AckApplied advances the client's acked watermark: the caller promises it
// has consumed the results of every seq <= upto, letting the dedup table
// reclaim their receipts. One durable transaction; acking backwards is a
// no-op. WasApplied stays true for acked seqs.
func (s *Session) AckApplied(client, upto uint64) {
	s.db.eng.Update(s.tid, func(m ptm.Mem) uint64 {
		dedup.Ack(m, client, upto)
		return 0
	})
}

// DetectStats reports the client's exactly-once witness: total receipts ever
// recorded (applied operations), the highest receipted seq, and the acked
// watermark. Three independent durable-linearizable reads (a closure may be
// re-executed by helpers, so it cannot write through captured variables; each
// read returns one word instead).
func (s *Session) DetectStats(client uint64) (receipts, maxSeq, acked uint64) {
	read := func(pick int) uint64 {
		return s.db.eng.Read(s.tid, func(m ptm.Mem) uint64 {
			r, mx, a := dedup.Stats(m, client)
			switch pick {
			case 0:
				return r
			case 1:
				return mx
			default:
				return a
			}
		})
	}
	return read(0), read(1), read(2)
}

// BatchDigest fingerprints a batch's operations for its receipt: op kinds,
// keys and values folded in order, so a retry presenting different contents
// under the same (client, seq) is detectable.
func BatchDigest(b *WriteBatch) uint64 {
	h := detect.Digest(opBatch, nil, uint64(b.n))
	b.Each(func(key, value []byte, del bool) {
		tag := opPut
		if del {
			tag = opDelete
		}
		h ^= detect.Digest(tag, key, detect.Digest(0, value, h))
		h *= 1099511628211
	})
	if h == 0 {
		h = 1
	}
	return h
}
