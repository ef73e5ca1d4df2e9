package redodb

import "encoding/binary"

// WriteBatch collects Put/Delete operations for atomic application. Put and
// Delete encode each op into one grow-only arena the batch owns: a flags
// word (1 = delete), the key length and bytes, and for puts the value length
// and bytes, lengths little-endian. Assembling a batch from scratch buffers
// the caller overwrites next (a connection's frame decoder) is therefore
// safe, and a reused batch costs amortized zero allocations per op.
//
// Ownership contract: no write path retains a reference into the batch past
// its return. Apply snapshots the arena once, because helpers may re-run
// the transaction closure after Apply returns, and a sharded front-end
// copies the ops into its own sub-batches and intent record; Clear may
// therefore recycle the arena immediately. A batch still must not be
// mutated concurrently with a write it was handed to from another
// goroutine.
type WriteBatch struct {
	rep []byte // encoded ops
	n   int    // number of ops
}

// opDeleteFlag marks a delete in the encoded op's first word.
const opDeleteFlag = 1

// appendOp encodes one op onto rep.
func appendOp(rep, key, value []byte, del bool) []byte {
	flags := uint64(0)
	if del {
		flags = opDeleteFlag
	}
	rep = binary.LittleEndian.AppendUint64(rep, flags)
	rep = binary.LittleEndian.AppendUint64(rep, uint64(len(key)))
	rep = append(rep, key...)
	if !del {
		rep = binary.LittleEndian.AppendUint64(rep, uint64(len(value)))
		rep = append(rep, value...)
	}
	return rep
}

// encodeOp encodes a single op into a buffer of exactly its size: the
// one-allocation snapshot behind Session.Put and Session.Delete.
func encodeOp(key, value []byte, del bool) []byte {
	n := 16 + len(key)
	if !del {
		n += 8 + len(value)
	}
	return appendOp(make([]byte, 0, n), key, value, del)
}

// forEach walks the ops encoded in rep in order. Deletes report a nil value.
func forEach(rep []byte, fn func(key, value []byte, del bool)) {
	for len(rep) > 0 {
		del := binary.LittleEndian.Uint64(rep) == opDeleteFlag
		kl := binary.LittleEndian.Uint64(rep[8:])
		key := rep[16 : 16+kl : 16+kl]
		rep = rep[16+kl:]
		var value []byte
		if !del {
			vl := binary.LittleEndian.Uint64(rep)
			value = rep[8 : 8+vl : 8+vl]
			rep = rep[8+vl:]
		}
		fn(key, value, del)
	}
}

// Put queues an insertion/overwrite.
func (b *WriteBatch) Put(key, value []byte) {
	b.rep = appendOp(b.rep, key, value, false)
	b.n++
}

// Delete queues a deletion.
func (b *WriteBatch) Delete(key []byte) {
	b.rep = appendOp(b.rep, key, nil, true)
	b.n++
}

// Each calls fn for every queued op in order; deletes report a nil value.
// The slices alias the arena and are valid until the next Put, Delete or
// Clear.
func (b *WriteBatch) Each(fn func(key, value []byte, del bool)) { forEach(b.rep, fn) }

// Len reports the number of queued operations.
func (b *WriteBatch) Len() int { return b.n }

// Size reports the encoded size of the queued operations in bytes: per op
// 16 bytes plus the key, and for a put another 8 bytes plus the value.
func (b *WriteBatch) Size() int { return len(b.rep) }

// Clear empties the batch for reuse, recycling the arena. The arena holds
// only the batch's own copies, so truncating it retains nothing of the
// caller's.
func (b *WriteBatch) Clear() {
	b.rep = b.rep[:0]
	b.n = 0
}
