// Package server is the network front-end: it serves the wire protocol
// (internal/wire) over any net.Listener against a sharded RedoDB
// (internal/shardeddb), exposing the store's full semantic surface to remote
// clients — plain and detectable operations, durable-vs-buffered write
// flags, cross-shard batches, snapshot scans, and the Sync barrier.
//
// Concurrency model: each accepted connection is handled by one goroutine
// bound to a thread id drawn from a fixed pool of Options.Threads ids (the
// store's session bound). The handler decodes frames in arrival order and
// answers strictly in order, but it pipelines against the store: consecutive
// plain PUTs accumulate into a reused cross-shard WriteBatch whose flush is
// deferred until a non-batchable request arrives, the batch fills, or the
// decoder's read buffer drains (the client is about to block on us). A
// pipelined client therefore pays one store transaction per burst, not per
// frame — the group-commit shape from the paper's serving path, built on the
// arena WriteBatch ownership contract (see redodb/batch.go).
//
// Simulated power failures propagate as panics from the pmem layer; the
// server catches pmem.ErrSimulatedPowerFailure on every connection handler,
// trips into a failed state, and closes the listener and every connection.
// The crash harness then crashes the group, reopens the store, and starts a
// fresh server — clients see ECONNRESET mid-flight and drive recovery with
// detectable retries.
package server

import (
	"errors"
	"net"
	"sync"

	"repro/internal/pmem"
	"repro/internal/shardeddb"
	"repro/internal/wire"
)

// Options parameterizes New.
type Options struct {
	// Threads is the number of concurrent connections served (the size of
	// the thread-id pool; must not exceed the store's Options.Threads).
	Threads int
	// Limits bounds accepted frames (DefaultLimits when zero).
	Limits wire.Limits
	// MaxBatch flushes the per-connection write batch when it holds this
	// many operations (default 64).
	MaxBatch int
}

// Server serves the wire protocol against one sharded DB.
type Server struct {
	db   *shardeddb.DB
	opts Options
	tids chan int

	mu       sync.Mutex
	listener net.Listener
	conns    map[net.Conn]struct{}
	stopped  bool
	failed   bool

	wg    sync.WaitGroup
	stats Stats
}

// New wraps an already-open store. The caller keeps ownership of the DB and
// its pmem group — crash harnesses inject failures and reopen through their
// own handles.
func New(db *shardeddb.DB, opts Options) *Server {
	if opts.Threads <= 0 {
		opts.Threads = 1
	}
	if opts.MaxBatch <= 0 {
		opts.MaxBatch = 64
	}
	s := &Server{
		db:    db,
		opts:  opts,
		tids:  make(chan int, opts.Threads),
		conns: make(map[net.Conn]struct{}),
	}
	for i := 0; i < opts.Threads; i++ {
		s.tids <- i
	}
	return s
}

// Serve accepts connections on l until Stop, a listener error, or a
// simulated power failure. It returns nil on Stop and ErrServerFailed after
// a power failure; connection handlers may still be draining when it
// returns — use Wait for full quiescence.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		l.Close()
		return nil
	}
	s.listener = l
	s.mu.Unlock()
	for {
		c, err := l.Accept()
		if err != nil {
			s.mu.Lock()
			failed, stopped := s.failed, s.stopped
			s.mu.Unlock()
			if failed {
				return ErrServerFailed
			}
			if stopped {
				return nil
			}
			return err
		}
		// A connection holds its tid for its whole lifetime; when the pool
		// is dry, admission waits — backpressure on accept rather than
		// oversubscribing the store's session bound.
		tid := <-s.tids
		s.mu.Lock()
		if s.stopped {
			s.mu.Unlock()
			c.Close()
			s.tids <- tid
			continue
		}
		s.conns[c] = struct{}{}
		s.mu.Unlock()
		s.stats.Conns.Add(1)
		s.wg.Add(1)
		go s.serveConn(c, tid)
	}
}

// ErrServerFailed is returned by Serve after a simulated power failure
// tripped the server.
var ErrServerFailed = errors.New("server: stopped by simulated power failure")

// Failed reports whether a simulated power failure tripped the server.
func (s *Server) Failed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.failed
}

// Stop closes the listener and every live connection. Safe to call more
// than once and before Serve.
func (s *Server) Stop() {
	s.shutdown(false)
}

// fail is Stop for the power-failure path: it marks the server failed so
// Serve's caller can distinguish a crash from a clean shutdown.
func (s *Server) fail() {
	s.shutdown(true)
}

func (s *Server) shutdown(failed bool) {
	s.mu.Lock()
	if failed {
		s.failed = true
	}
	already := s.stopped
	s.stopped = true
	l := s.listener
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	if already && !failed {
		return
	}
	if l != nil {
		l.Close()
	}
	for _, c := range conns {
		c.Close()
	}
}

// Wait blocks until every connection handler has exited.
func (s *Server) Wait() { s.wg.Wait() }

// serveConn runs one connection to completion, returning its tid to the
// pool. A simulated power failure surfacing from any store call trips the
// whole server; every other panic is a real bug and propagates.
func (s *Server) serveConn(c net.Conn, tid int) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
		c.Close()
		s.tids <- tid
		s.stats.Conns.Add(-1)
		if r := recover(); r != nil {
			if r == pmem.ErrSimulatedPowerFailure {
				s.fail()
				return
			}
			panic(r)
		}
	}()
	newConn(s, c, s.db.Session(tid)).run()
}
