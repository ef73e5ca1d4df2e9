package redodb

// Buffered durability for RedoDB: the session-facing half of the engine's
// group-commit mode (see internal/core/redo/buffered.go for the crash-safety
// argument). Puts commit into the in-flight epoch and return immediately;
// durability arrives when an epoch seal — one fence for the whole group —
// advances the durable-epoch watermark. The caller drives the seals:
//
//   - Session.Sync() blocks until the session's last operation is durable,
//     sealing the epoch on the calling thread if the watermark lags.
//   - WriteOptions.Sync is the synchronous escape hatch (commit + Sync).
//   - DB.Persist seals the in-flight epoch outright.
//
// Every seal runs on a caller's thread, so instruction counts stay
// deterministic for the crash sweeps. A front-end that wants a background
// cadence runs its own loop over Persist, as the sharded front-end's group
// persister does for all of its shards.

// Buffered reports whether the DB runs in relaxed-durability mode.
func (db *DB) Buffered() bool { return db.buffered }

// DurableEpoch returns the durable-epoch watermark. Operations whose epoch
// (Session.LastEpoch) is at or below it survive any crash.
func (db *DB) DurableEpoch() uint64 { return db.eng.DurableSeq() }

// CommittedEpoch returns the in-flight epoch's tail.
func (db *DB) CommittedEpoch() uint64 { return db.eng.CommittedSeq() }

// Persist seals the in-flight epoch, waits for it to become durable on the
// calling thread, and returns the new watermark. Concurrent callers are
// serialized (the engine's Persist has a single-caller contract). In
// synchronous mode it is a no-op returning the watermark (always the
// committed tail).
func (db *DB) Persist() uint64 {
	if !db.buffered {
		return db.eng.DurableSeq()
	}
	db.persistMu.Lock()
	defer db.persistMu.Unlock()
	return db.eng.Persist() // panics propagate (simulated power failure)
}

// LastEpoch returns the epoch of the session's last completed operation:
// it is durable once DurableEpoch reaches it.
func (s *Session) LastEpoch() uint64 { return s.db.eng.LastSeq(s.tid) }

// Sync blocks until the session's last completed operation is durable: the
// buffered-durability consistency point. It seals on the calling thread
// when the watermark lags, and is two atomic loads otherwise. A no-op in
// synchronous mode.
func (s *Session) Sync() {
	if s.db.buffered && s.db.eng.DurableSeq() < s.db.eng.LastSeq(s.tid) {
		s.db.Persist()
	}
}
