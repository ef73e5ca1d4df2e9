package redodb

import (
	"sync"
	"time"

	"repro/internal/pmem"
)

// Buffered durability for RedoDB: the session-facing half of the engine's
// group-commit mode (see internal/core/redo/buffered.go for the crash-safety
// argument). Puts commit into the in-flight epoch and return immediately;
// durability arrives when the persister seals the epoch — one fence for the
// whole group — and advances the durable-epoch watermark. Callers choose
// their own consistency point:
//
//   - Session.Sync() blocks until the session's last operation is durable.
//   - WriteOptions.Sync is the synchronous escape hatch (commit + Sync).
//   - Session.Watch(epoch) returns a channel closed once the watermark
//     reaches epoch — the async completion-notification API.
//
// The persister is either a background goroutine (Options.PersistEvery >= 0,
// default 200µs cadence) or caller-driven (PersistEvery < 0: each Sync or
// explicit DB.Persist seals the epoch on the calling thread — the mode the
// crash sweeps use, keeping instruction counts deterministic).

// defaultPersistEvery is the background persister cadence when unset.
const defaultPersistEvery = 200 * time.Microsecond

// watcher is one Watch/Sync registration: ch is closed when the durable
// watermark reaches epoch.
type watcher struct {
	epoch uint64
	ch    chan struct{}
}

// buffered is the DB-side buffered-durability state.
type buffered struct {
	persistMu sync.Mutex // serializes eng.Persist (single-caller contract)

	mu       sync.Mutex
	watchers []watcher // pending registrations, compacted in place

	kick chan struct{} // nudges the background persister
	stop chan struct{}
	done chan struct{}
}

// closedCh is the shared already-durable channel: Watch on a satisfied
// epoch returns it without allocating.
var closedCh = func() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}()

// Buffered reports whether the DB runs in relaxed-durability mode.
func (db *DB) Buffered() bool { return db.buf != nil }

// DurableEpoch returns the durable-epoch watermark. Operations whose epoch
// (Session.LastEpoch) is at or below it survive any crash.
func (db *DB) DurableEpoch() uint64 { return db.eng.DurableSeq() }

// CommittedEpoch returns the in-flight epoch's tail.
func (db *DB) CommittedEpoch() uint64 { return db.eng.CommittedSeq() }

// Persist seals the in-flight epoch, waits for it to become durable on the
// calling thread, wakes satisfied watchers, and returns the new watermark.
// Safe to call concurrently with the background persister. In synchronous
// mode it is a no-op returning the watermark (always the committed tail).
func (db *DB) Persist() uint64 {
	if db.buf == nil {
		return db.eng.DurableSeq()
	}
	db.buf.persistMu.Lock()
	w := db.eng.Persist() // panics propagate (simulated power failure)
	db.buf.persistMu.Unlock()
	db.wake(w)
	return w
}

// wake closes every watcher channel satisfied by watermark w, recycling the
// registration slots in place: survivors compact to the front and the
// vacated tail is zeroed so no closed channel (or its waiters' memory) is
// retained through the backing array — the same retention class as
// WriteBatch.Clear, pinned by TestEpochWatcherSlotsRecycled.
func (db *DB) wake(w uint64) {
	b := db.buf
	b.mu.Lock()
	kept := b.watchers[:0]
	for _, wt := range b.watchers {
		if wt.epoch <= w {
			close(wt.ch)
		} else {
			kept = append(kept, wt)
		}
	}
	clear(b.watchers[len(kept):])
	b.watchers = kept
	b.mu.Unlock()
}

// watch registers interest in epoch, returning a channel closed once the
// watermark reaches it (the shared closed channel if it already has).
func (db *DB) watch(epoch uint64) <-chan struct{} {
	if db.eng.DurableSeq() >= epoch {
		return closedCh
	}
	b := db.buf
	b.mu.Lock()
	// Re-check under the lock: wake() holds it while closing, so a
	// registration that observes an older watermark here is guaranteed to
	// be seen by the persist that advances past it.
	if db.eng.DurableSeq() >= epoch {
		b.mu.Unlock()
		return closedCh
	}
	ch := make(chan struct{})
	b.watchers = append(b.watchers, watcher{epoch: epoch, ch: ch})
	b.mu.Unlock()
	return ch
}

// nudge wakes the background persister without blocking.
func (db *DB) nudge() {
	select {
	case db.buf.kick <- struct{}{}:
	default:
	}
}

// Close stops the background persister (after a final seal) and releases
// the DB's goroutine resources. A DB without a persister needs no Close.
func (db *DB) Close() {
	if db.buf == nil || db.buf.stop == nil {
		return
	}
	close(db.buf.stop)
	<-db.buf.done
	db.buf.stop = nil
}

// persistLoop is the background persister: it seals the in-flight epoch on
// a timer cadence and whenever a Sync nudges it. A simulated power failure
// parks the goroutine quietly — the harness is about to Crash the pool and
// reopen, and every pmem instruction would panic identically until it does.
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

// LastEpoch returns the epoch of the session's last completed operation —
// the argument Watch needs to wait for exactly this session's work.
func (s *Session) LastEpoch() uint64 { return s.db.eng.LastSeq(s.tid) }

// Watch returns a channel that is closed once the durable watermark reaches
// epoch. With a background persister the epoch seals within its cadence;
// in caller-driven mode the channel fires on the next Persist/Sync by any
// thread. Watch never blocks.
func (s *Session) Watch(epoch uint64) <-chan struct{} {
	if s.db.buf == nil {
		return closedCh // synchronous mode: everything committed is durable
	}
	return s.db.watch(epoch)
}

// Sync blocks until the session's last completed operation is durable: the
// buffered-durability consistency point. Concurrent Syncs share one epoch
// seal (group commit). A no-op in synchronous mode.
func (s *Session) Sync() {
	if s.db.buf == nil {
		return
	}
	target := s.db.eng.LastSeq(s.tid)
	if s.db.eng.DurableSeq() >= target {
		return
	}
	if s.db.buf.stop == nil {
		// Caller-driven mode: seal on this thread.
		s.db.Persist()
		return
	}
	ch := s.db.watch(target)
	s.db.nudge()
	<-ch
}
