package server

import (
	"encoding/json"
	"sync/atomic"

	"repro/internal/obs"
)

// Stats aggregates the server's observable behavior: live connection count,
// operation and error totals, and service-time histograms split by read and
// write classes. Service time is measured from the moment a request is
// decoded to the moment its response bytes are handed to the connection's
// write buffer — for a batched PUT that includes the time it spent queued
// behind its flush, which is exactly the latency a pipelined client's
// request experiences inside the server.
type Stats struct {
	Conns  atomic.Int64
	Ops    atomic.Uint64
	Errors atomic.Uint64
	Read   obs.Histogram
	Write  obs.Histogram
	All    obs.Histogram
}

// StatsSnapshot is the JSON form served by the STATS opcode. Shards is the
// served store's shard count, so a load generator can label its results
// with the configuration it measured.
type StatsSnapshot struct {
	Shards int              `json:"shards"`
	Conns  int64            `json:"conns"`
	Ops    uint64           `json:"ops"`
	Errors uint64           `json:"errors"`
	Read   obs.HistSnapshot `json:"read"`
	Write  obs.HistSnapshot `json:"write"`
	All    obs.HistSnapshot `json:"all"`
}

// Reset zeroes the op/error counters and the service-time histograms (live
// connection count excluded — it is a gauge, not an interval counter). The
// STATS opcode's reset bit calls this at load-cell boundaries; see
// obs.Histogram.Reset for the concurrency caveat.
func (s *Stats) Reset() {
	s.Ops.Store(0)
	s.Errors.Store(0)
	s.Read.Reset()
	s.Write.Reset()
	s.All.Reset()
}

// Stats snapshots the server's counters and histograms.
func (s *Server) Stats() StatsSnapshot {
	return StatsSnapshot{
		Shards: s.db.Shards(),
		Conns:  s.stats.Conns.Load(),
		Ops:    s.stats.Ops.Load(),
		Errors: s.stats.Errors.Load(),
		Read:   s.stats.Read.Snapshot(),
		Write:  s.stats.Write.Snapshot(),
		All:    s.stats.All.Snapshot(),
	}
}

// statsJSON renders the snapshot for the STATS response payload.
func (s *Server) statsJSON() []byte {
	b, err := json.Marshal(s.Stats())
	if err != nil {
		return []byte("{}")
	}
	return b
}
