package bench

import (
	"repro/internal/pmem"
	"repro/internal/redodb"
)

// Space sweep: the repo's Fig-8-style space figure. Each cell fills a fresh
// RedoDB with cfg.Keys distinct keys at one payload size under the arena
// allocator and records bytes of NVMM per key plus the allocator's
// fragmentation breakdown. The interesting number is the 1 KiB cell: a
// 1 KiB value needs 129 words, which the arena allocator rounds to a
// 160-word class and the paper's power-of-two allocator rounded to 256 (the
// "legacy" cells of BENCH_pr10.json, the frozen record of that allocator).

// spaceSizes are the figure's payload sizes in bytes.
var spaceSizes = []int{100, 1024, 8192}

// SpaceEntries runs one cell per value size.
func SpaceEntries(cfg DBConfig, threads int) []BenchEntry {
	var out []BenchEntry
	for _, size := range spaceSizes {
		out = append(out, spaceCell(cfg, size, threads))
	}
	return out
}

// spaceCell fills one database and measures its settled space usage. The
// fill is sequential and untimed: the figure is about bytes, not ops/sec,
// and a deterministic key set makes the per-key quotient exact.
func spaceCell(cfg DBConfig, size, threads int) BenchEntry {
	pool := pmem.New(pmem.Config{
		Mode: pmem.Direct, RegionWords: regionWords(cfg, size), Regions: threads + 1, Latency: cfg.Lat,
	})
	db := redodb.Open(pool, redodb.Options{Threads: threads})
	s := db.Session(0)
	val := valueOf(size)
	for i := uint64(0); i < cfg.Keys; i++ {
		s.Put(dbKey(i), val)
	}
	st := db.AllocStats()
	// External fragmentation: block slots sitting in claimed spans with no
	// block allocated in them.
	var capWords, liveWords uint64
	for _, c := range st.Classes {
		capWords += c.CapBlocks * c.Size
		liveWords += c.LiveBlocks * c.Size
	}
	var fragPct float64
	if capWords > 0 {
		fragPct = 100 * float64(capWords-liveWords) / float64(capWords)
	}
	return BenchEntry{
		Workload:    "fillrandom",
		Engine:      "RedoDB",
		Shards:      1,
		Threads:     threads,
		ValueSize:   size,
		Path:        "arena",
		BytesPerKey: float64(db.NVMUsedBytes()) / float64(cfg.Keys),
		FragPct:     fragPct,
	}
}
