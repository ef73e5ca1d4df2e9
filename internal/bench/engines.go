// Package bench is the benchmark harness that regenerates the paper's
// evaluation (Figs. 4–9 and Table 1): engine factories for every PTM,
// workload generators, thread-sweep runners and table printers. The cmd
// binaries (ptmbench, dbbench) and the root bench_test.go are thin wrappers
// over this package.
package bench

import (
	"fmt"

	"repro/internal/core/cx"
	"repro/internal/core/redo"
	"repro/internal/onefile"
	"repro/internal/pmdk"
	"repro/internal/pmem"
	"repro/internal/psim"
	"repro/internal/ptm"
	"repro/internal/romulus"
)

// Engine is a named PTM factory. New creates a fresh instance over a fresh
// pool sized regionWords per replica; the replica count follows each
// construction's bound (2N for CX, N+1 for Redo, 1+log for the others).
type Engine struct {
	Name string
	New  func(threads int, regionWords uint64, lat pmem.LatencyModel, prof *ptm.Profile) (ptm.PTM, *pmem.Pool)
	// NewOnPool instantiates (or recovers) the engine over an existing
	// pool — the crash checker's recovery path.
	NewOnPool func(threads int, pool *pmem.Pool) ptm.PTM
	// StaleRanges declares the spans of a pool that committed state does
	// not reach — the crash checker's corruption targets.
	StaleRanges func(pool *pmem.Pool) []pmem.Range
}

// AllEngines returns the paper's full comparison set, fastest-to-slowest in
// the paper's headline results.
func AllEngines() []Engine {
	return []Engine{
		RedoEngine(redo.Opt),
		RedoEngine(redo.Timed),
		RedoEngine(redo.Base),
		CXEngine(true),
		CXEngine(false),
		OneFileEngine(),
		RomulusEngine(),
		PSimEngine(),
		PMDKEngine(),
	}
}

// EngineByName resolves one engine, matching the names used in the paper's
// plots (case-sensitive).
func EngineByName(name string) (Engine, error) {
	for _, e := range AllEngines() {
		if e.Name == name {
			return e, nil
		}
	}
	return Engine{}, fmt.Errorf("bench: unknown engine %q", name)
}

// RedoEngine builds a Redo-PTM variant factory.
func RedoEngine(v redo.Variant) Engine {
	return Engine{
		Name: v.String(),
		New: func(threads int, words uint64, lat pmem.LatencyModel, prof *ptm.Profile) (ptm.PTM, *pmem.Pool) {
			pool := pmem.New(pmem.Config{
				Mode:        pmem.Direct,
				RegionWords: words,
				Regions:     threads + 1,
				Latency:     lat,
			})
			return redo.New(pool, redo.Config{Threads: threads, Variant: v, Profile: prof}), pool
		},
		NewOnPool: func(threads int, pool *pmem.Pool) ptm.PTM {
			return redo.New(pool, redo.Config{Threads: threads, Variant: v})
		},
		StaleRanges: redo.StaleRanges,
	}
}

// CXEngine builds a CX factory: interpose=true is CX-PTM, false is CX-PUC.
func CXEngine(interpose bool) Engine {
	name := "CX-PUC"
	if interpose {
		name = "CX-PTM"
	}
	return Engine{
		Name: name,
		New: func(threads int, words uint64, lat pmem.LatencyModel, prof *ptm.Profile) (ptm.PTM, *pmem.Pool) {
			regions := 2 * threads
			if regions < 2 {
				regions = 2
			}
			pool := pmem.New(pmem.Config{
				Mode:        pmem.Direct,
				RegionWords: words,
				Regions:     regions,
				Latency:     lat,
			})
			return cx.New(pool, cx.Config{Threads: threads, Interpose: interpose, Profile: prof}), pool
		},
		NewOnPool: func(threads int, pool *pmem.Pool) ptm.PTM {
			return cx.New(pool, cx.Config{Threads: threads, Interpose: interpose})
		},
		StaleRanges: cx.StaleRanges,
	}
}

// OneFileEngine builds the OneFile baseline factory.
func OneFileEngine() Engine {
	return Engine{
		Name: "OneFile",
		New: func(threads int, words uint64, lat pmem.LatencyModel, prof *ptm.Profile) (ptm.PTM, *pmem.Pool) {
			pool := pmem.New(pmem.Config{
				Mode:        pmem.Direct,
				RegionWords: words,
				Regions:     2,
				Latency:     lat,
			})
			return onefile.New(pool, onefile.Config{Threads: threads, Profile: prof}), pool
		},
		NewOnPool: func(threads int, pool *pmem.Pool) ptm.PTM {
			return onefile.New(pool, onefile.Config{Threads: threads})
		},
		StaleRanges: onefile.StaleRanges,
	}
}

// RomulusEngine builds the RomulusLR baseline factory (blocking updates,
// wait-free reads, 4 fences, 2 replicas).
func RomulusEngine() Engine {
	return Engine{
		Name: "RomulusLR",
		New: func(threads int, words uint64, lat pmem.LatencyModel, prof *ptm.Profile) (ptm.PTM, *pmem.Pool) {
			pool := pmem.New(pmem.Config{
				Mode:        pmem.Direct,
				RegionWords: words,
				Regions:     2,
				Latency:     lat,
			})
			return romulus.New(pool, romulus.Config{Threads: threads, Profile: prof}), pool
		},
		NewOnPool: func(threads int, pool *pmem.Pool) ptm.PTM {
			return romulus.New(pool, romulus.Config{Threads: threads})
		},
		StaleRanges: romulus.StaleRanges,
	}
}

// PSimEngine builds the P-Sim-style copy-on-write PUC factory, the "other"
// wait-free UC family of the paper's §1 taxonomy.
func PSimEngine() Engine {
	return Engine{
		Name: "PSim-CoW",
		New: func(threads int, words uint64, lat pmem.LatencyModel, prof *ptm.Profile) (ptm.PTM, *pmem.Pool) {
			pool := pmem.New(pmem.Config{
				Mode:        pmem.Direct,
				RegionWords: words,
				Regions:     2,
				Latency:     lat,
			})
			return psim.New(pool, psim.Config{Threads: threads, Profile: prof}), pool
		},
		NewOnPool: func(threads int, pool *pmem.Pool) ptm.PTM {
			return psim.New(pool, psim.Config{Threads: threads})
		},
		StaleRanges: psim.StaleRanges,
	}
}

// PMDKEngine builds the PMDK baseline factory.
func PMDKEngine() Engine {
	return Engine{
		Name: "PMDK",
		New: func(threads int, words uint64, lat pmem.LatencyModel, prof *ptm.Profile) (ptm.PTM, *pmem.Pool) {
			pool := pmem.New(pmem.Config{
				Mode:        pmem.Direct,
				RegionWords: words,
				Regions:     2,
				Latency:     lat,
			})
			return pmdk.New(pool, pmdk.Config{Threads: threads, Profile: prof}), pool
		},
		NewOnPool: func(threads int, pool *pmem.Pool) ptm.PTM {
			return pmdk.New(pool, pmdk.Config{Threads: threads})
		},
		StaleRanges: pmdk.StaleRanges,
	}
}
