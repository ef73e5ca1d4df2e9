package shardeddb

import (
	"encoding/binary"
	"errors"

	"repro/internal/obs"
	"repro/internal/pmem"
)

// Batch-intent record layout (coordinator region, word addresses).
//
// The record is a single-slot persistent write-ahead intent: a cross-shard
// batch is first logged here in full, made durable, and only then applied
// shard by shard. Completion durably bumps lastCommitted and clears the
// status. Recovery therefore sees exactly one of three states: no intent
// (status 0), an intent for a batch that may be partially applied (status 1,
// seq > lastCommitted — roll forward, idempotent via per-shard tags), or a
// leftover of a completed batch (status 1, seq <= lastCommitted — discard).
//
// coordLast sits on its own cache line so completing a batch can never tear
// the intent fields; the intent header (status/seq/len/crc) shares a line,
// and the CRC is made durable strictly before the status flips to 1, so a
// durable status=1 implies a durable, checksummed payload — status=1 with a
// bad CRC is unreachable by power failure and is reported as corruption.
const (
	coordLast    = 8  // lastCommitted batch sequence number (own line)
	coordStatus  = 16 // 0 = no intent, 1 = intent published
	coordSeq     = 17 // sequence number of the published intent
	coordLen     = 18 // payload length in bytes
	coordCRC     = 19 // CRC64 over (seq, len, payload words)
	coordPayload = 24 // payload words (line-aligned)

	// coordWords sizes the coordinator region, which bounds the encoded
	// size of a cross-shard batch to maxBatchBytes (32,576 B).
	coordWords    = 1 << 12
	maxBatchBytes = (coordWords - coordPayload) * 8
)

// ErrBatchTooLarge reports a cross-shard batch whose encoded intent does
// not fit the coordinator region. Apply returns it before publishing
// anything, so none of the batch is applied; WriteBatch.Fits tells a
// caller when to split.
var ErrBatchTooLarge = errors.New("shardeddb: cross-shard batch exceeds the coordinator region")

// payloadWords converts a payload byte length to its word footprint.
func payloadWords(bytes uint64) uint64 { return (bytes + 7) / 8 }

// intentReceipt is the detectable-operation identity a cross-shard batch
// carries in its intent: roll-forward must re-record the request's receipt
// on its home shard atomically with that shard's sub-batch, or a crashed
// detectable batch could be replayed by recovery AND retried by the client.
type intentReceipt struct {
	client uint64 // persistent client id (nonzero)
	seq    uint64 // client request sequence number
	digest uint64 // full-batch result digest (redodb.BatchDigest)
	home   int    // shard whose dedup table holds the receipt
}

// Intent payload header flags (word 0 of the payload).
const (
	intentFlagPlain   = 0 // header is the flags word only; ops follow
	intentFlagReceipt = 1 // 4 receipt words (client, seq, digest, home) follow
)

// encodeIntent serializes the intent payload: a flags word, the optional
// receipt header, then the batch ops (encodeBatch format).
func encodeIntent(ops []batchOp, rcpt *intentReceipt) []byte {
	var hdr [5 * 8]byte
	n := 8
	if rcpt != nil {
		binary.LittleEndian.PutUint64(hdr[0:], intentFlagReceipt)
		binary.LittleEndian.PutUint64(hdr[8:], rcpt.client)
		binary.LittleEndian.PutUint64(hdr[16:], rcpt.seq)
		binary.LittleEndian.PutUint64(hdr[24:], rcpt.digest)
		binary.LittleEndian.PutUint64(hdr[32:], uint64(rcpt.home))
		n = 40
	}
	return append(hdr[:n:n], encodeBatch(ops)...)
}

// decodeIntent parses an intent payload (CRC already verified). Structural
// violations are corruption the checksum failed to catch.
func decodeIntent(buf []byte, shards int) ([]batchOp, *intentReceipt) {
	if len(buf) < 8 {
		panic(pmem.Corruptf("shardeddb", "intent payload shorter than its header"))
	}
	flags := binary.LittleEndian.Uint64(buf)
	buf = buf[8:]
	switch flags {
	case intentFlagPlain:
		return decodeBatch(buf), nil
	case intentFlagReceipt:
		if len(buf) < 32 {
			panic(pmem.Corruptf("shardeddb", "intent receipt header truncated"))
		}
		rcpt := &intentReceipt{
			client: binary.LittleEndian.Uint64(buf),
			seq:    binary.LittleEndian.Uint64(buf[8:]),
			digest: binary.LittleEndian.Uint64(buf[16:]),
			home:   int(binary.LittleEndian.Uint64(buf[24:])),
		}
		if rcpt.client == 0 || rcpt.seq == 0 || rcpt.home < 0 || rcpt.home >= shards {
			panic(pmem.Corruptf("shardeddb", "intent receipt (client %d, seq %d, home %d) out of range", rcpt.client, rcpt.seq, rcpt.home))
		}
		return decodeBatch(buf[32:]), rcpt
	}
	panic(pmem.Corruptf("shardeddb", "intent flags %d out of range", flags))
}

// encodeBatch serializes a batch into the intent payload format: per op, a
// flags word (1 = delete), the key length and bytes, and for puts the value
// length and bytes.
func encodeBatch(ops []batchOp) []byte {
	var size int
	for _, op := range ops {
		size += op.encodedSize()
	}
	buf := make([]byte, 0, size)
	var w [8]byte
	putU64 := func(v uint64) {
		binary.LittleEndian.PutUint64(w[:], v)
		buf = append(buf, w[:]...)
	}
	for _, op := range ops {
		if op.del {
			putU64(1)
		} else {
			putU64(0)
		}
		putU64(uint64(len(op.key)))
		buf = append(buf, op.key...)
		if !op.del {
			putU64(uint64(len(op.val)))
			buf = append(buf, op.val...)
		}
	}
	return buf
}

// encodedSize is the op's footprint in the encodeBatch format.
func (op batchOp) encodedSize() int {
	if op.del {
		return 16 + len(op.key)
	}
	return 24 + len(op.key) + len(op.val)
}

// decodeBatch parses an intent payload. The payload passed its CRC, so any
// structural violation means the record was damaged in a way the checksum
// did not catch — reported as corruption, never a panic or a wrong answer.
func decodeBatch(buf []byte) []batchOp {
	var ops []batchOp
	u64 := func() uint64 {
		if len(buf) < 8 {
			panic(pmem.Corruptf("shardeddb", "truncated intent payload"))
		}
		v := binary.LittleEndian.Uint64(buf)
		buf = buf[8:]
		return v
	}
	take := func(n uint64) []byte {
		if uint64(len(buf)) < n {
			panic(pmem.Corruptf("shardeddb", "intent payload overruns its length"))
		}
		b := buf[:n]
		buf = buf[n:]
		return b
	}
	for len(buf) > 0 {
		flags := u64()
		if flags > 1 {
			panic(pmem.Corruptf("shardeddb", "intent op flags %d out of range", flags))
		}
		op := batchOp{del: flags == 1}
		op.key = append([]byte(nil), take(u64())...)
		if !op.del {
			op.val = append([]byte(nil), take(u64())...)
		}
		ops = append(ops, op)
	}
	return ops
}

// intentCRC checksums an intent: sequence number, byte length, and the
// payload words (the tail word zero-padded, exactly as stored).
func intentCRC(seq, bytes uint64, words []uint64) uint64 {
	all := make([]uint64, 0, 2+len(words))
	all = append(all, seq, bytes)
	all = append(all, words...)
	return pmem.ChecksumWords(all...)
}

// packWords converts a payload to the zero-padded words stored in the record.
func packWords(buf []byte) []uint64 {
	words := make([]uint64, payloadWords(uint64(len(buf))))
	for i := range words {
		lo := i * 8
		hi := lo + 8
		if hi > len(buf) {
			var tail [8]byte
			copy(tail[:], buf[lo:])
			words[i] = binary.LittleEndian.Uint64(tail[:])
		} else {
			words[i] = binary.LittleEndian.Uint64(buf[lo:hi])
		}
	}
	return words
}

// publishIntent durably logs the batch before any shard applies it. Ordering
// is the whole protocol: payload, sequence number, length and CRC are
// flushed and fenced first, and only then does status flip to 1 — so a
// durable status=1 always names a durable, verifiable payload. Caller holds
// batchMu and has checked the payload against maxBatchBytes.
func (db *DB) publishIntent(seq uint64, payload []byte) {
	words := packWords(payload)
	for i, w := range words {
		db.coord.Store(coordPayload+uint64(i), w)
	}
	db.coord.Store(coordSeq, seq)
	db.coord.Store(coordLen, uint64(len(payload)))
	db.coord.Store(coordCRC, intentCRC(seq, uint64(len(payload)), words))
	db.coord.FlushRange(coordPayload, uint64(len(words)))
	db.coord.PWB(coordSeq)
	db.coord.PWB(coordLen)
	db.coord.PWB(coordCRC)
	db.coord.PFence()
	// The intent record — header words plus a payload whose length only
	// this execution knows — must be durable before status can flip.
	db.group.Pool(0).TraceEvent(obs.KindPublish, -1, db.coord.Index(),
		coordSeq, coordPayload+uint64(len(words))-coordSeq, obs.PubIntent)
	db.coord.Store(coordStatus, 1)
	db.coord.PWB(coordStatus)
	db.coord.PFence()
	db.group.Pool(0).TraceEvent(obs.KindIntentPublish, -1, db.coord.Index(),
		coordStatus, 1, seq)
}

// completeIntent durably retires the intent after every shard has applied
// its sub-batch: lastCommitted advances to seq and the status clears. The
// two stores may tear independently across a crash — every resulting state
// is handled by recoverIntent (a surviving status=1 with seq <= the shard
// tags simply replays idempotent sub-batches or is discarded). Caller holds
// batchMu.
func (db *DB) completeIntent(seq uint64) {
	db.coord.Store(coordLast, seq)
	db.coord.PWB(coordLast)
	db.coord.Store(coordStatus, 0)
	db.coord.PWB(coordStatus)
	db.coord.PFence()
	db.group.Pool(0).TraceEvent(obs.KindPublish, -1, db.coord.Index(),
		coordLast, coordStatus-coordLast+1, obs.PubStatus)
}

// recoverIntent replays or discards a batch intent that survived a crash,
// then seeds the volatile sequence state. Called from Open after the shard
// DBs are recovered; runs single-threaded.
func (db *DB) recoverIntent() {
	status := db.coord.Load(coordStatus)
	if status > 1 {
		panic(pmem.Corruptf("shardeddb", "intent status %d out of range", status))
	}
	lastSeq := db.coord.Load(coordLast)
	maxSeq := lastSeq
	tags := make([]uint64, len(db.shards))
	for i, sh := range db.shards {
		tags[i] = sh.Session(0).TagAt()
		if tags[i] > maxSeq {
			maxSeq = tags[i]
		}
	}
	if status == 1 {
		seq := db.coord.Load(coordSeq)
		bytes := db.coord.Load(coordLen)
		if payloadWords(bytes) > db.coord.Words()-coordPayload {
			panic(pmem.Corruptf("shardeddb", "intent length %d overruns coordinator region", bytes))
		}
		words := make([]uint64, payloadWords(bytes))
		for i := range words {
			words[i] = db.coord.Load(coordPayload + uint64(i))
		}
		if crc := intentCRC(seq, bytes, words); crc != db.coord.Load(coordCRC) {
			// A legal power failure cannot produce status=1 with a bad
			// checksum: the checksum is fenced durable before status
			// flips. Only media damage can.
			panic(pmem.Corruptf("shardeddb", "intent checksum mismatch for seq %d", seq))
		}
		if seq > lastSeq {
			// The batch was durably logged but not durably completed:
			// roll it forward. Shards whose tag already equals seq
			// applied their sub-batch before the crash; replaying the
			// rest is exactly the crashed Write resuming.
			buf := make([]byte, bytes)
			for i := range buf {
				buf[i] = byte(words[i/8] >> (8 * (i % 8)))
			}
			for i, tag := range tags {
				if tag > seq {
					panic(pmem.Corruptf("shardeddb", "shard %d tag %d ahead of open intent %d", i, tag, seq))
				}
			}
			db.group.Pool(0).TraceEvent(obs.KindRollForward, -1, db.coord.Index(), 0, 0, seq)
			ops, rcpt := decodeIntent(buf, len(db.shards))
			s := db.Session(0)
			s.applySubs(s.split(ops), seq, tags, rcpt)
			// Buffered shards: the replayed sub-batches commit into fresh
			// in-flight epochs; they must persist before the intent is
			// retired below, or a crash-after-retire would lose them with
			// nothing left to roll forward (the Write-path barrier,
			// replayed). Re-crash anywhere before the retire just rolls
			// the same intent forward again — a fixed point.
			if db.buffered {
				db.Persist()
			}
			if seq > maxSeq {
				maxSeq = seq
			}
		}
		// Either way the intent is retired; for an already-completed
		// batch this just rewrites lastCommitted with its current value.
		if seq > lastSeq {
			db.completeIntent(seq)
		} else {
			db.completeIntent(lastSeq)
		}
	}
	db.lastCommitted.Store(maxSeq)
	db.nextSeq = maxSeq + 1
}
