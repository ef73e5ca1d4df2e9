package main

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Values are self-describing so that a read can be checked against a
// computation made apart from the store: every value names its key, its
// writer and the writer's sequence number, carries filler derived from
// those, and ends in a checksum over everything before it.
//
//	[0,8)   key index
//	[8]     writer id
//	[9,17)  writer sequence number
//	[17,92) filler
//	[92,100) FNV-1a checksum of bytes [0,92)
const (
	valueSize = 100
	keySize   = 16

	// preloadWriter marks values written during set-up; their sequence
	// number is the key index.
	preloadWriter = 255
)

var (
	errChecksum = errors.New("value checksum mismatch")
	errWrongKey = errors.New("value belongs to another key")
	errNeverPut = errors.New("value was never written for this key")
	errStale    = errors.New("final value is not a last acknowledged write")
	errMissing  = errors.New("key missing")
	errValue    = errors.New("value differs from the one written")
)

// valueID identifies one write: who wrote which key, as its how-manyth write.
type valueID struct {
	key    uint64
	writer uint8
	seq    uint64
}

func fnv(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

// appendValue appends the 100-byte value of id to dst.
func appendValue(dst []byte, id valueID) []byte {
	start := len(dst)
	dst = binary.LittleEndian.AppendUint64(dst, id.key)
	dst = append(dst, id.writer)
	dst = binary.LittleEndian.AppendUint64(dst, id.seq)
	x := id.key*0x9e3779b97f4a7c15 ^ id.seq<<8 ^ uint64(id.writer)
	for len(dst)-start < valueSize-8 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		dst = append(dst, byte(x))
	}
	return binary.LittleEndian.AppendUint64(dst, fnv(dst[start:]))
}

// parseValue checks a value's length and checksum and returns its identity.
func parseValue(v []byte) (valueID, error) {
	if len(v) != valueSize {
		return valueID{}, fmt.Errorf("value is %d bytes, want %d", len(v), valueSize)
	}
	if binary.LittleEndian.Uint64(v[valueSize-8:]) != fnv(v[:valueSize-8]) {
		return valueID{}, errChecksum
	}
	return valueID{
		key:    binary.LittleEndian.Uint64(v),
		writer: v[8],
		seq:    binary.LittleEndian.Uint64(v[9:]),
	}, nil
}

// readOf checks a value returned for key and returns its identity; whether
// that write really happened is settled later by history.checkObserved,
// once no writer is running.
func readOf(key uint64, v []byte) (valueID, error) {
	id, err := parseValue(v)
	if err != nil {
		return id, err
	}
	if id.key != key {
		return id, errWrongKey
	}
	return id, nil
}

// history is the benchmark's own record of what each writer wrote and
// which of those writes were acknowledged. Writer w alone appends to
// puts[w] and lastAck[w] while it runs; readers only collect value
// identities, which are checked after every writer has stopped.
type history struct {
	puts    [][]uint32 // puts[w][s]: key of writer w's s-th write
	lastAck [][]int64  // lastAck[w][k]: seq of w's last acknowledged write of k, -1 if none
}

func newHistory(writers, keys int) *history {
	h := &history{puts: make([][]uint32, writers), lastAck: make([][]int64, writers)}
	for w := range h.lastAck {
		h.lastAck[w] = make([]int64, keys)
		for k := range h.lastAck[w] {
			h.lastAck[w][k] = -1
		}
	}
	return h
}

// next records that writer w is about to write key and returns the value
// identity to write.
func (h *history) next(w int, key uint64) valueID {
	h.puts[w] = append(h.puts[w], uint32(key))
	return valueID{key: key, writer: uint8(w), seq: uint64(len(h.puts[w]) - 1)}
}

// acked records that the write id was acknowledged.
func (h *history) acked(id valueID) { h.lastAck[id.writer][id.key] = int64(id.seq) }

// checkObserved reports whether id names a write that was issued for its
// key: a set-up value or a write some writer started.
func (h *history) checkObserved(id valueID) error {
	if id.writer == preloadWriter {
		if id.seq != id.key {
			return errNeverPut
		}
		return nil
	}
	if int(id.writer) >= len(h.puts) || id.seq >= uint64(len(h.puts[id.writer])) ||
		uint64(h.puts[id.writer][id.seq]) != id.key {
		return errNeverPut
	}
	return nil
}

// checkFinal reports whether v, read for key after every writer stopped,
// is the last acknowledged write of one of the writers (or the set-up
// value, if no writer wrote the key).
func (h *history) checkFinal(key uint64, v []byte) error {
	id, err := readOf(key, v)
	if err != nil {
		return err
	}
	written := false
	for w := range h.lastAck {
		if h.lastAck[w][key] >= 0 {
			written = true
		}
	}
	if id.writer == preloadWriter {
		if written || id.seq != key {
			return errStale
		}
		return nil
	}
	if int(id.writer) >= len(h.lastAck) || h.lastAck[id.writer][key] != int64(id.seq) {
		return errStale
	}
	return nil
}

// observer checks values as they are read and keeps their identities for
// the check against every writer's history once the writers have stopped.
type observer struct {
	checks
	seen []uint64 // packed identities of the values read
}

func (r *observer) observe(key uint64, v []byte, ok bool) {
	if !ok {
		r.fail("read %d: %v", key, errMissing)
		return
	}
	id, err := readOf(key, v)
	if err != nil {
		r.fail("read %d: %v", key, err)
		return
	}
	r.seen = append(r.seen, packID(id))
}

// verify checks every kept identity against hist and merges r's checks
// into c. No writer may be running.
func (r *observer) verify(hist *history, c *checks) {
	c.merge(&r.checks)
	for _, p := range r.seen {
		if id := unpackID(p); hist.checkObserved(id) != nil {
			c.fail("read %d: %v", id.key, errNeverPut)
		}
	}
}

// packID packs a value identity into one word (key < 2^20, seq < 2^36).
func packID(id valueID) uint64 { return id.key | uint64(id.writer)<<20 | id.seq<<28 }

func unpackID(p uint64) valueID {
	return valueID{key: p & (1<<20 - 1), writer: uint8(p >> 20), seq: p >> 28}
}
