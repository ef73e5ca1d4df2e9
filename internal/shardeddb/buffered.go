package shardeddb

import (
	"time"

	"repro/internal/pmem"
)

// Buffered durability for the sharded front-end. Each shard runs its RedoDB
// in caller-driven buffered mode and keeps its own durable-epoch watermark;
// the sharded DB adds the cross-shard pieces:
//
//   - One persister for the whole group (a background goroutine when
//     Options.PersistEvery >= 0, otherwise caller-driven) seals every
//     shard's in-flight epoch in turn — K fences per cadence instead of
//     2 fences per operation.
//   - Session.Sync is the cross-shard barrier: it waits until the
//     session's last operation on EVERY shard is durable, so a reader that
//     synced can never observe a post-crash state missing any of them.
//   - Cross-shard WriteBatch keeps its all-or-nothing guarantee: the
//     coordinator intent is always synchronous, and the touched shards are
//     persisted before the intent retires, so a crash either loses the
//     whole batch to roll-forward or none of it — buffering never turns a
//     torn batch into a "completed" one (see Write and recoverIntent).
type bufferedState struct {
	kick chan struct{}
	stop chan struct{}
	done chan struct{}
}

// Buffered reports whether the DB runs in relaxed-durability mode.
func (db *DB) Buffered() bool { return db.buffered }

// DurableEpoch returns shard's durable-epoch watermark.
func (db *DB) DurableEpoch(shard int) uint64 { return db.shards[shard].DurableEpoch() }

// CommittedEpoch returns shard's in-flight epoch tail.
func (db *DB) CommittedEpoch(shard int) uint64 { return db.shards[shard].CommittedEpoch() }

// Persist seals the in-flight epoch of every shard on the calling thread
// and returns only when all of them are durable. Shards already at their
// watermark cost one atomic load each.
func (db *DB) Persist() {
	for _, sh := range db.shards {
		sh.Persist()
	}
}

// nudge wakes the background persister without blocking.
func (db *DB) nudge() {
	if db.buf != nil {
		select {
		case db.buf.kick <- struct{}{}:
		default:
		}
	}
}

// Close stops the background persister (after a final group seal). A DB
// without one needs no Close.
func (db *DB) Close() {
	if db.buf == nil {
		return
	}
	close(db.buf.stop)
	<-db.buf.done
	db.buf = nil
}

// persistLoop is the group persister: one goroutine seals every shard on a
// timer cadence and whenever a Sync nudges it. A simulated power failure
// parks it quietly — the harness is about to Crash the group and reopen.
func (db *DB) persistLoop(every time.Duration) {
	defer close(db.buf.done)
	defer func() {
		if r := recover(); r != nil && r != pmem.ErrSimulatedPowerFailure {
			panic(r)
		}
	}()
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-db.buf.stop:
			db.Persist()
			return
		case <-db.buf.kick:
		case <-t.C:
		}
		db.Persist()
	}
}

// Sync is the cross-shard durability barrier: it blocks until the session's
// last completed operation on every shard is durable. A no-op in
// synchronous mode.
func (s *Session) Sync() {
	if !s.db.buffered {
		return
	}
	// Per-shard redodb sessions run caller-driven, so each Sync seals its
	// shard directly when the watermark lags (and is a load otherwise);
	// the shared persistMu serializes against the group persister.
	for _, sess := range s.sess {
		sess.Sync()
	}
}

// LastEpoch returns the commit epoch of this session's last operation on
// shard (redodb's per-thread LastSeq). The network front-end reports it in
// write responses so remote clients can correlate acknowledgements with the
// shard's durable-epoch watermark.
func (s *Session) LastEpoch(shard int) uint64 { return s.sess[shard].LastEpoch() }
