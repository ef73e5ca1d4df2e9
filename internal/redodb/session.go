package redodb

import "repro/internal/ptm"

// Session is a per-thread handle to the database. All methods are durable
// linearizable transactions with bounded wait-free progress.
type Session struct {
	db  *DB
	tid int

	// Optimistic-read scratch: parameters and result buffer for the
	// pre-bound getFn/hasFn closures, valid only for the duration of one
	// TryRead call on this session's goroutine. Announced closures must
	// never touch these — a stale helper could observe a later call's
	// values — which is why the contended fallbacks below clone instead.
	readKey  []byte
	readHash uint64
	readDst  []byte
	getFn    func(ptm.Mem) uint64
	hasFn    func(ptm.Mem) uint64
}

// Put stores (key, value), overwriting any previous value: a plain write.
// The closure may be re-executed by helper threads, so key and value are
// snapshotted — into one encoded op, the method's only data allocation.
func (s *Session) Put(key, value []byte) { s.commit(encodeOp(key, value, false), WriteOptions{}) }

// getRead is the optimistic lookup bound to getFn at session creation.
func (s *Session) getRead(m ptm.Mem) uint64 {
	node, _, _ := findNode(m, s.readKey, s.readHash)
	if node == 0 {
		return 0
	}
	s.readDst = ptm.LoadBytesAppend(m, m.Load(node+ndVal), s.readDst)
	return 1
}

// hasRead is the optimistic membership probe bound to hasFn.
func (s *Session) hasRead(m ptm.Mem) uint64 {
	node, _, _ := findNode(m, s.readKey, s.readHash)
	if node == 0 {
		return 0
	}
	return 1
}

// Get returns the value stored under key, or (nil, false) if absent.
func (s *Session) Get(key []byte) ([]byte, bool) {
	val, ok := s.GetAppend(nil, key)
	if !ok {
		return nil, false
	}
	if val == nil {
		val = []byte{}
	}
	return val, true
}

// GetAppend appends the value stored under key to dst and returns the
// extended slice, plus whether the key was present (dst is returned
// unchanged when absent). With sufficient capacity in dst the uncontended
// path performs zero heap allocations — the value travels from persistent
// words straight into dst, with no intermediate clone or outbox copy.
func (s *Session) GetAppend(dst, key []byte) ([]byte, bool) {
	// Optimistic path: TryRead never announces the closure, so it may
	// alias key and dst through the session scratch fields.
	s.readKey, s.readHash, s.readDst = key, hashKey(key), dst
	res, ok := s.db.eng.TryRead(s.tid, s.getFn)
	out := s.readDst
	s.readKey, s.readDst = nil, nil
	if ok {
		return out, res == 1
	}
	// Contended: announce a helper-safe closure (clones the key, routes
	// the value through the executor outbox).
	k := append([]byte(nil), key...)
	found, val := s.db.eng.ReadWithBytes(s.tid, func(m ptm.Mem) uint64 {
		node, _, _ := findNode(m, k, hashKey(k))
		if node == 0 {
			return 0
		}
		ptm.EmitBytes(m, ptm.LoadBytes(m, m.Load(node+ndVal)))
		return 1
	})
	if found == 0 {
		return dst, false
	}
	return append(dst, val...), true
}

// Has reports whether key is present, without materializing the value.
func (s *Session) Has(key []byte) bool {
	s.readKey, s.readHash = key, hashKey(key)
	res, ok := s.db.eng.TryRead(s.tid, s.hasFn)
	s.readKey = nil
	if ok {
		return res == 1
	}
	k := append([]byte(nil), key...)
	return s.db.eng.Read(s.tid, func(m ptm.Mem) uint64 {
		node, _, _ := findNode(m, k, hashKey(k))
		if node == 0 {
			return 0
		}
		return 1
	}) == 1
}

// Delete removes key, reporting whether it was present: a plain write.
func (s *Session) Delete(key []byte) bool {
	return s.commit(encodeOp(key, nil, true), WriteOptions{})&resPresent != 0
}

// Len returns the number of keys.
func (s *Session) Len() uint64 {
	return s.db.eng.Read(s.tid, func(m ptm.Mem) uint64 {
		return m.Load(m.Load(mapRoot) + hdrCount)
	})
}

// Write applies a batch of operations as one atomic durable transaction —
// the LevelDB WriteBatch semantics, here with serializable isolation. A
// plain write always applies and cannot fail, so Apply's results are
// dropped.
func (s *Session) Write(b *WriteBatch) { _, _ = s.Apply(b, WriteOptions{}) }
