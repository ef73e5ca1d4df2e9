// Package palloc implements the sequential persistent memory allocator used
// by every construction in this repository. The paper's constructions
// acquire an exclusive lock on a replica region before running user code, so
// the allocator needs no internal synchronization — which is exactly how the
// paper obtains wait-free allocation and deallocation: the allocator inherits
// the progress of the construction that calls it.
//
// The heap has one on-media format, the arena format (Format, magic word
// "palloc02"). It carves the heap into 64-word pages grouped into spans,
// each span owned by one of 31 fine-grained size classes (1.25× spacing).
// Allocation state lives in per-span occupancy bitmaps: the hot path for an
// Alloc or Free is a single logged word store. Class free lists are kept per
// arena so shards and threads hashed to different arenas reuse disjoint
// spans. Recovery can rebuild the bitmaps from engine-registered roots
// (Recover), which reclaims blocks leaked by a crash between allocation and
// publication. It replaces the power-of-two free list the paper measures in
// Fig. 8, whose 2× rounding waste is recorded in BENCH_pr10.json.
//
// Design notes that the evaluation depends on:
//
//   - All metadata (directory entries, list heads, bump pointer) lives
//     inside the persistent region and is accessed through the same Mem
//     interface as user data, so a PTM's store interposition logs and
//     flushes allocator metadata exactly like user stores.
//   - The allocator state is part of the region, so replicating a region
//     byte-for-byte replicates the allocator — allocations made in one
//     replica are valid in every replica.
//   - Allocation is a pure function of persistent state: given the same
//     heap image and the same arena, Alloc returns the same address. The
//     PTM closure-determinism contract (ptm.Mem) depends on this; there is
//     no volatile cache or hint state.
package palloc

// Mem is the minimal word-memory interface the allocator needs. ptm.Mem
// satisfies it.
type Mem interface {
	Load(addr uint64) uint64
	Store(addr uint64, val uint64)
}

// Base is the word offset of the allocator metadata within a region,
// matching ptm.HeapBase.
const Base = 16

const magicArena = 0x70616c6c6f633032 // "palloc02"

// IsFormatted reports whether the region viewed through m holds a formatted
// arena heap, as recovery uses it to decide between reuse and
// initialization.
func IsFormatted(m Mem) bool { return m.Load(Base+offMagic) == magicArena }

// Alloc allocates a block with room for at least words payload words from
// arena 0 and returns the payload address, or 0 if the heap is exhausted.
func Alloc(m Mem, words uint64) uint64 { return AllocArena(m, 0, words) }

// AllocArena allocates from the given arena (0..NumArenas-1). Arenas
// partition the class free lists so callers hashed to different arenas
// (shards, threads) reuse disjoint spans. The arena must be a deterministic
// function of the operation being executed (e.g. the announcing thread id),
// never of the executing helper, or re-executed closures would diverge.
func AllocArena(m Mem, arena int, words uint64) uint64 {
	return arenaAlloc(m, arena, words)
}

// Free returns the block whose payload starts at addr to its free
// structure. Freeing an invalid address panics: persistent heap corruption
// must not be silent.
func Free(m Mem, addr uint64) { arenaFree(m, addr) }

// UsableWords reports the payload capacity of the block at addr.
func UsableWords(m Mem, addr uint64) uint64 { return arenaUsableWords(m, addr) }

// InUseWords reports the number of words currently allocated (including
// rounding waste): the NVMM usage the paper plots in Fig. 8, computed from
// the page directory.
func InUseWords(m Mem) uint64 { return arenaInUseWords(m) }

// UsedWords reports the high-water mark of the heap: every word the
// allocator has ever handed out lies below it. CX-PUC flushes [0, UsedWords)
// on every curComb transition, and replica copies cover the same range.
func UsedWords(m Mem) uint64 {
	return m.Load(Base+off2PagesStart) + m.Load(Base+off2Bump)*pageWords
}

// HeapEndWords reports the configured heap end.
func HeapEndWords(m Mem) uint64 { return m.Load(Base + offHeapEnd) }

// MetaWords reports the number of words of allocator metadata at the start
// of the region viewed through m: the first payload word of any block lies
// at or beyond it. Engines flush [0, MetaWords) after formatting. The
// metadata includes the page directory, so the value depends on the heap
// size.
func MetaWords(m Mem) uint64 { return m.Load(Base + off2PagesStart) }
