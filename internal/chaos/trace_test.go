package chaos

import (
	"testing"

	"repro/internal/obs"
	"repro/internal/pmem"
)

// physOf converts a stats snapshot to the trace-side counter type.
func physOf(s pmem.StatsSnapshot) obs.PhysCounts {
	return obs.PhysCounts{
		PWBs:        s.PWBs,
		PFences:     s.PFences,
		PSyncs:      s.PSyncs,
		NTStores:    s.NTStores,
		WordsCopied: s.WordsCopied,
	}
}

// traceOps is the short deterministic workload the parity smokes run.
const traceOps = 24

// TestTraceStatsParity is the per-engine observability smoke: every engine
// in the crashcheck registry runs the standard workload with tracing on, the
// captured trace must reconstruct the pool group's stats counters EXACTLY
// (pwbs, pfences, psyncs, ntstores, copied words), and the dynamic ordering
// checker must accept the trace. ci.sh runs one engine of this test under
// -race as the bounded trace-parity step.
func TestTraceStatsParity(t *testing.T) {
	for _, e := range Engines() {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			g := e.Group()
			tr := obs.NewTracer(1 << 19)
			g.SetTracer(tr)
			r := e.Runner()
			r.Fresh(g)
			for i := 0; i < traceOps; i++ {
				r.Insert(i)
			}
			if err := r.Verify(traceOps, traceOps); err != nil {
				t.Fatal(err)
			}

			snap := tr.Snapshot()
			if snap.Dropped != 0 {
				t.Fatalf("ring wrapped (dropped %d) — grow the tracer", snap.Dropped)
			}
			if got, want := snap.Counts(), physOf(g.Stats()); got != want {
				t.Fatalf("trace/stats parity broken:\n  trace %+v\n  stats %+v", got, want)
			}

			vs, err := obs.CheckOrdering(snap, obs.CheckOptions{})
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range vs {
				t.Errorf("ordering violation: %v", v)
			}

			kinds := snap.KindCounts()
			if kinds[obs.KindPublish]+kinds[obs.KindHeaderPublish]+kinds[obs.KindIntentPublish] == 0 {
				t.Errorf("engine declared no publish points — the checker verified nothing")
			}
			if kinds[obs.KindRecoveryBegin] == 0 || kinds[obs.KindRecoveryEnd] == 0 {
				t.Errorf("recovery phase markers missing: %v", kinds)
			}
			// The RedoDB family stores byte payloads through the bulk path
			// by default (even 1-byte values: a 2-word StoreWords), so its
			// traces must contain aggregated bulk-store events.
			if e.BulkStores && kinds[obs.KindBulkStore] == 0 {
				t.Errorf("no bulk-store events — the aggregated path is not live on %s", e.Name)
			}
			// Buffered engines must narrate their group-commit cycle: epoch
			// seals and watermark advances (whose monotonicity the ordering
			// checker above just verified).
			if e.Buffered {
				if kinds[obs.KindEpochSeal] == 0 || kinds[obs.KindWatermark] == 0 {
					t.Errorf("buffered engine emitted no epoch-seal/watermark events: %v", kinds)
				}
			}
		})
	}
}

// TestTraceParityUnderCrashInjection pins the parity guarantee at its
// hardest point: a simulated power failure fires mid-workload (the injector
// panics BEFORE the stats bump, and events are emitted after it), the group
// crashes and recovers with the same tracer attached, and afterwards the
// cumulative trace still matches the cumulative stats exactly and the whole
// crash-spanning trace passes the ordering checker.
func TestTraceParityUnderCrashInjection(t *testing.T) {
	e, err := Lookup("redodb")
	if err != nil {
		t.Fatal(err)
	}
	events := MeasureEvents(e, traceOps)

	g := e.Group()
	tr := obs.NewTracer(1 << 19)
	g.SetTracer(tr)
	completed, crashed, err := workload(g, e.Runner(), traceOps, events/2)
	if err != nil {
		t.Fatal(err)
	}
	if !crashed {
		t.Fatalf("failure point %d never fired over %d events", events/2, events)
	}
	g.Crash(pmem.CrashConservative, nil)
	g.InjectFailure(-1)

	r2 := e.Runner()
	r2.Fresh(g)
	if err := r2.Verify(completed, traceOps); err != nil {
		t.Fatal(err)
	}

	snap := tr.Snapshot()
	if snap.Dropped != 0 {
		t.Fatalf("ring wrapped (dropped %d)", snap.Dropped)
	}
	if got, want := snap.Counts(), physOf(g.Stats()); got != want {
		t.Fatalf("post-crash parity broken:\n  trace %+v\n  stats %+v", got, want)
	}
	kinds := snap.KindCounts()
	if kinds[obs.KindCrash] == 0 {
		t.Fatalf("no crash event captured: %v", kinds)
	}
	vs, err := obs.CheckOrdering(snap, obs.CheckOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range vs {
		t.Errorf("ordering violation across crash: %v", v)
	}
}
