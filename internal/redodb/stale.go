package redodb

import (
	"repro/internal/core/redo"
	"repro/internal/palloc"
	"repro/internal/pmem"
	"repro/internal/ptm"
)

// StaleRanges reports the spans that committed state does not reach. RedoDB
// stores everything inside its engine's replica regions, so the stale set is
// exactly the engine's: every replica other than the one the persisted
// curComb names.
func StaleRanges(pool *pmem.Pool) []pmem.Range {
	return redo.StaleRanges(pool)
}

// validate sanity-checks the recovered heap and map header inside a read
// transaction and panics with a typed *pmem.CorruptionError when the
// adopted replica is structurally implausible: an allocator magic that is
// not the arena format (the engine formats a fresh heap before this runs,
// so any other word is corruption or a foreign image), a root pointing
// outside the region, a bucket count that is not a power of two, or a
// bucket array that overruns the heap. These can only arise from
// corruption — the map is created whole in one transaction and every later
// mutation is transactional.
func (db *DB) validate() {
	words := db.pool.RegionWords()
	db.eng.Read(0, func(m ptm.Mem) uint64 {
		if !palloc.IsFormatted(memShim{m}) {
			panic(pmem.Corruptf("redodb", "allocator magic %#x is not the arena heap format", m.Load(palloc.Base)))
		}
		hdr := m.Load(mapRoot)
		if hdr == 0 {
			return 0 // first open; Open formats next
		}
		if hdr+hdrCount >= words {
			panic(pmem.Corruptf("redodb", "map header at %d outside region of %d words", hdr, words))
		}
		nb := m.Load(hdr + hdrNB)
		buckets := m.Load(hdr + hdrBuckets)
		if nb < minBuckets || nb&(nb-1) != 0 {
			panic(pmem.Corruptf("redodb", "bucket count %d is not a power of two >= %d", nb, minBuckets))
		}
		if buckets == 0 || buckets+nb > words {
			panic(pmem.Corruptf("redodb", "bucket array [%d,%d) outside region of %d words", buckets, buckets+nb, words))
		}
		if count := m.Load(hdr + hdrCount); count > words {
			panic(pmem.Corruptf("redodb", "implausible key count %d for region of %d words", count, words))
		}
		return 0
	})
}
