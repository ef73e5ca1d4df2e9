package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/obs"
	"repro/internal/palloc"
	"repro/internal/pmem"
	"repro/internal/ptm"
)

// tracerEvents is the ring size of the traced run's event tracer. The ring
// is drained at every round boundary (and, on fill, whenever it is a
// quarter full), so it only has to hold one round of events.
const tracerEvents = 1 << 20

// tally counts the logical events the per-layer metrics need from the obs
// tracer. The tracer is a ring that must be read while its pools are
// quiescent, so the workloads call drain between rounds.
//
// A tally without a tracer (the untraced run) ignores every call.
type tally struct {
	tr            *obs.Tracer
	wins, losses  uint64 // combining rounds that won / lost the consensus
	allocs, frees uint64
	overflowed    bool
	goAlloc, goGC uint64 // Go heap bytes allocated and GC cycles while workers ran
	lastMem       runtime.MemStats
	paused        bool
}

func newTally() *tally {
	return &tally{tr: obs.NewTracer(tracerEvents), paused: true}
}

// resume marks the start of worker activity for the Go runtime counters.
func (t *tally) resume() {
	if t.tr == nil {
		return
	}
	runtime.ReadMemStats(&t.lastMem)
	t.paused = false
}

// pause adds the Go runtime activity since resume.
func (t *tally) pause() {
	if t.tr == nil || t.paused {
		return
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	t.goAlloc += m.TotalAlloc - t.lastMem.TotalAlloc
	t.goGC += uint64(m.NumGC - t.lastMem.NumGC)
	t.paused = true
}

// drain folds the captured events into the counts and empties the ring.
// The pools the tracer is attached to must be quiescent. The Go runtime
// counters are paused around it, so the tracer's own copying is not
// charged to the workload.
func (t *tally) drain() {
	if t.tr == nil {
		return
	}
	t.pause()
	tr := t.tr.Snapshot()
	if tr.Dropped > 0 {
		t.overflowed = true
	}
	for _, e := range tr.Events {
		switch e.Kind {
		case obs.KindCombineEnd:
			if e.Arg == 1 {
				t.wins++
			} else {
				t.losses++
			}
		case obs.KindAlloc:
			t.allocs++
		case obs.KindFree:
			t.frees++
		}
	}
	t.tr.Reset()
	t.resume()
}

// err reports a ring that wrapped between two drains, which would make
// every count an undercount.
func (t *tally) err() error {
	if t.overflowed {
		return fmt.Errorf("tracer ring of %d events wrapped between drains", tracerEvents)
	}
	return nil
}

// layers holds the per-layer measurements of a traced run. A field a
// workload does not reach stays zero and prints as 0 (fill and zipf-rw
// cross no server, wire or shardeddb; net-ycsb-a runs its redo engines
// inside shardeddb, which exposes no Profile and no engine).
type layers struct {
	writes int64 // writes completed in the throughput phase (the denominator)
	ops    int64 // all operations completed in the throughput phase

	pmem   pmem.StatsSnapshot // over all pools, throughput phase
	prof   ptm.ProfileSnapshot
	copies uint64
	tally  *tally
	heap   palloc.HeapStats // summed over shards

	writeMax, slowWrite int64 // ns, redodb writes of the latency phase
	open, firstWrite    latencies

	coordFences uint64
	shardOpen   latencies

	serviceP50, serviceP99 float64 // ns
	commits                uint64  // distinct (shard, epoch) pairs of acknowledged PUTs
	encodeNs, decodeNs     float64
	clientOverheadNs       float64
}

// slowWriteLimit is the latency above which a write counts towards
// redodb.slow_write_ms: far above any write that neither grows the table
// nor replays a growth.
const slowWriteLimit = time.Millisecond

func (l *layers) metrics() map[string]metric {
	w := float64(l.writes)
	t := l.tally
	return map[string]metric{
		"pmem.fences_per_write":       {ratio(float64(l.pmem.Fences()), w), "1"},
		"pmem.words_copied_per_write": {ratio(float64(l.pmem.WordsCopied), w), "1"},
		"pmem.nt_stores_per_write":    {ratio(float64(l.pmem.NTStores), w), "1"},

		"redo.replica_copies":    {float64(l.copies), "count"},
		"redo.copy_ms":           {ms(float64(l.prof.Copy)), "ms"},
		"redo.apply_ms":          {ms(float64(l.prof.Apply)), "ms"},
		"redo.lambda_ms":         {ms(float64(l.prof.Lambda)), "ms"},
		"redo.flush_ms":          {ms(float64(l.prof.Flush)), "ms"},
		"redo.tx_mean_us":        {us(float64(l.prof.MeanTx())), "us"},
		"redo.ops_per_combine":   {ratio(w, float64(t.wins)), "1"},
		"redo.combine_win_ratio": {ratio(float64(t.wins), float64(t.wins+t.losses)), "1"},

		"palloc.in_use_bytes":     {float64(l.heap.InUseWords * 8), "B"},
		"palloc.meta_bytes":       {float64(l.heap.MetaWords * 8), "B"},
		"palloc.free_pages":       {float64(l.heap.FreePages), "count"},
		"palloc.allocs_per_write": {ratio(float64(t.allocs), w), "1"},
		"palloc.frees_per_write":  {ratio(float64(t.frees), w), "1"},

		"redodb.write_max_ms":   {ms(float64(l.writeMax)), "ms"},
		"redodb.slow_write_ms":  {ms(float64(l.slowWrite)), "ms"},
		"redodb.open_ms":        {ms(l.open.quantile(0.5)), "ms"},
		"redodb.first_write_ms": {ms(l.firstWrite.quantile(0.5)), "ms"},

		"shardeddb.coord_fences_per_write": {ratio(float64(l.coordFences), w), "1"},
		"shardeddb.open_ms":                {ms(l.shardOpen.quantile(0.5)), "ms"},

		"server.service_p50_us":       {us(l.serviceP50), "us"},
		"server.service_p99_us":       {us(l.serviceP99), "us"},
		"server.writes_per_commit":    {ratio(w, float64(l.commits)), "1"},
		"wire.encode_ns_per_frame":    {l.encodeNs, "ns"},
		"wire.decode_ns_per_frame":    {l.decodeNs, "ns"},
		"load.client_overhead_p50_us": {us(l.clientOverheadNs), "us"},

		"go.alloc_bytes_per_op": {ratio(float64(t.goAlloc), float64(l.ops)), "B"},
		"go.gc_cycles":          {float64(t.goGC), "count"},
	}
}
