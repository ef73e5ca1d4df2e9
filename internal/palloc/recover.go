package palloc

import (
	"fmt"
	"math/bits"
)

// RootEnumerator walks every reachable allocated block of an engine's
// persistent state, calling visit with each block's payload address exactly
// once. Engines register one per heap (redodb's kv map plus its dedup
// table; see redodb.Open) and recovery rebuilds the allocator's occupancy
// state from it.
type RootEnumerator func(visit func(addr uint64))

// RecoverStats reports what a reachability pass changed.
type RecoverStats struct {
	ReachableWords uint64 // footprint of blocks the enumerator reached
	ReclaimedWords uint64 // previously-allocated words reclaimed as leaks
	ReclaimedPages uint64 // whole pages returned to the free structure
}

// segment is one parsed page-directory entry group.
type segment struct {
	page   uint64
	kind   int
	class  int
	arena  int
	npages uint64
	bm     uint64 // spans: occupancy bitmap at parse time
}

// heapImage is a DRAM parse of an arena heap's directory.
type heapImage struct {
	bump, numPages, pagesStart uint64
	segs                       []segment
	segAt                      []int32 // page-1 → index into segs
	reachBm                    []uint64
	reached                    []bool
}

func parseHeap(m Mem) *heapImage {
	h := &heapImage{
		bump:       m.Load(Base + off2Bump),
		numPages:   m.Load(Base + off2NumPages),
		pagesStart: m.Load(Base + off2PagesStart),
	}
	h.segAt = make([]int32, h.bump)
	for p := uint64(1); p <= h.bump; {
		e0 := m.Load(dir0(p))
		s := segment{page: p, kind: int(e0 & kindMask)}
		switch s.kind {
		case kindSpan:
			s.class = classOfE(e0)
			s.arena = arenaOfE(e0)
			s.npages = npagesOfE(e0)
			s.bm = m.Load(dir1(p)) & fullMask(s.class)
		case kindLarge:
			s.npages = m.Load(dir1(p))
		case kindFree:
			s.npages = m.Load(dir1(p))
			if s.npages == 0 {
				s.npages = 1
			}
		default:
			panic(fmt.Sprintf("palloc: corrupt directory at page %d", p))
		}
		idx := int32(len(h.segs))
		h.segs = append(h.segs, s)
		for q := p; q < p+s.npages && q <= h.bump; q++ {
			h.segAt[q-1] = idx
		}
		p += s.npages
	}
	h.reachBm = make([]uint64, len(h.segs))
	h.reached = make([]bool, len(h.segs))
	return h
}

// mark records one reachable payload address, validating that it names a
// block start inside an allocated segment.
func (h *heapImage) mark(addr uint64) error {
	if addr < h.pagesStart {
		return fmt.Errorf("palloc: reachable address %d inside metadata", addr)
	}
	p := (addr-h.pagesStart)/pageWords + 1
	if p > h.bump {
		return fmt.Errorf("palloc: reachable address %d beyond claimed heap", addr)
	}
	s := &h.segs[h.segAt[p-1]]
	start := h.pagesStart + (s.page-1)*pageWords
	switch s.kind {
	case kindSpan:
		size := classSizes[s.class]
		off := addr - start
		i := off / size
		if off%size != 0 || i >= classBlocks[s.class] {
			return fmt.Errorf("palloc: reachable address %d is not a block start", addr)
		}
		if h.reachBm[h.segAt[p-1]]&(1<<i) != 0 {
			return fmt.Errorf("palloc: address %d reached twice", addr)
		}
		h.reachBm[h.segAt[p-1]] |= 1 << i
	case kindLarge:
		if addr != start {
			return fmt.Errorf("palloc: reachable address %d is not a block start", addr)
		}
		if h.reached[h.segAt[p-1]] {
			return fmt.Errorf("palloc: address %d reached twice", addr)
		}
		h.reached[h.segAt[p-1]] = true
	default:
		return fmt.Errorf("palloc: reachable address %d in free pages", addr)
	}
	return nil
}

func (h *heapImage) enumerate(roots RootEnumerator) error {
	var err error
	roots(func(addr uint64) {
		if err == nil {
			err = h.mark(addr)
		}
	})
	return err
}

// Recover rebuilds the arena heap's occupancy state from the blocks roots
// reaches: leaked blocks (allocated but unreachable — a crash between Alloc
// and publication) are reclaimed, empty spans and unreachable large blocks
// return to a coalesced free-run list, the virgin frontier shrinks past a
// free tail, and the per-arena class lists are rebuilt to hold exactly the
// spans with free capacity. Only differing words are stored, so a clean
// heap recovers with zero stores and Recover is idempotent. The caller runs
// it inside a transaction (stores go through m and are logged like any
// other), after the engine's own recovery has restored a consistent image.
func Recover(m Mem, roots RootEnumerator) RecoverStats {
	var st RecoverStats
	h := parseHeap(m)
	if err := h.enumerate(roots); err != nil {
		panic(err.Error())
	}
	diff := func(addr, val uint64) {
		if m.Load(addr) != val {
			m.Store(addr, val)
		}
	}
	// Pass 1: settle each segment — rewrite span bitmaps to the reachable
	// set, decide which pages fall free.
	free := make([]bool, h.bump)
	markFree := func(s *segment) {
		for q := s.page; q < s.page+s.npages && q <= h.bump; q++ {
			free[q-1] = true
		}
	}
	for i := range h.segs {
		s := &h.segs[i]
		switch s.kind {
		case kindSpan:
			reach := h.reachBm[i]
			size := classSizes[s.class]
			st.ReachableWords += uint64(bits.OnesCount64(reach)) * size
			if leaked := s.bm &^ reach; leaked != 0 {
				st.ReclaimedWords += uint64(bits.OnesCount64(leaked)) * size
			}
			if reach == 0 {
				markFree(s)
				st.ReclaimedPages += s.npages
				continue
			}
			diff(dir1(s.page), reach)
		case kindLarge:
			if h.reached[i] {
				st.ReachableWords += s.npages * pageWords
				continue
			}
			st.ReclaimedWords += s.npages * pageWords
			st.ReclaimedPages += s.npages
			markFree(s)
		case kindFree:
			markFree(s)
		}
	}
	// Pass 2: shrink the virgin frontier past a free tail, then write the
	// surviving free pages back as a coalesced ascending run list.
	newBump := h.bump
	for newBump > 0 && free[newBump-1] {
		newBump--
	}
	var runs [][2]uint64 // {head page, length}
	for p := uint64(1); p <= newBump; p++ {
		if !free[p-1] {
			continue
		}
		q := p
		for q+1 <= newBump && free[q] {
			q++
		}
		runs = append(runs, [2]uint64{p, q - p + 1})
		p = q
	}
	for i, r := range runs {
		var next uint64
		if i+1 < len(runs) {
			next = runs[i+1][0]
		}
		diff(dir0(r[0]), kindFree|next<<nextShift)
		diff(dir1(r[0]), r[1])
	}
	var runHead uint64
	if len(runs) > 0 {
		runHead = runs[0][0]
	}
	diff(Base+off2FreeRun, runHead)
	diff(Base+off2Bump, newBump)
	// Pass 3: rebuild the per-arena class lists to hold exactly the
	// surviving spans with free capacity, newest pages first.
	var heads [NumArenas][numClasses2]uint64
	for i := len(h.segs) - 1; i >= 0; i-- {
		s := &h.segs[i]
		if s.kind != kindSpan || s.page > newBump || free[s.page-1] {
			continue
		}
		reach := h.reachBm[i]
		full := fullMask(s.class)
		linked := reach&full != full
		var next uint64
		if linked {
			next = heads[s.arena][s.class]
			heads[s.arena][s.class] = s.page
		}
		diff(dir0(s.page), packSpan(uint64(s.class), uint64(s.arena), s.npages, next, linked))
	}
	for a := 0; a < NumArenas; a++ {
		for c := 0; c < numClasses2; c++ {
			diff(listAddr(a, c), heads[a][c])
		}
	}
	return st
}

// Reconcile checks an arena heap's allocation state against the blocks
// roots reaches, without mutating anything: it returns an error if any
// allocated block is unreachable (a leak) or any reachable address is not a
// live block (corruption). Chaos sweeps call it after every post-crash
// recovery; a heap that just ran Recover always reconciles.
func Reconcile(m Mem, roots RootEnumerator) error {
	h := parseHeap(m)
	if err := h.enumerate(roots); err != nil {
		return err
	}
	var leakedBlocks, leakedWords uint64
	for i := range h.segs {
		s := &h.segs[i]
		switch s.kind {
		case kindSpan:
			if leaked := s.bm &^ h.reachBm[i]; leaked != 0 {
				leakedBlocks += uint64(bits.OnesCount64(leaked))
				leakedWords += uint64(bits.OnesCount64(leaked)) * classSizes[s.class]
			}
			if ghost := h.reachBm[i] &^ s.bm; ghost != 0 {
				return fmt.Errorf("palloc: span at page %d: %d reachable blocks not marked allocated",
					s.page, bits.OnesCount64(ghost))
			}
		case kindLarge:
			if !h.reached[i] {
				leakedBlocks++
				leakedWords += s.npages * pageWords
			}
		}
	}
	if leakedBlocks > 0 {
		return fmt.Errorf("palloc: %d leaked blocks (%d words allocated but unreachable)",
			leakedBlocks, leakedWords)
	}
	return nil
}

// ClassStats describes one size class's occupancy.
type ClassStats struct {
	Size       uint64 // block size, words
	Spans      uint64
	LiveBlocks uint64
	CapBlocks  uint64 // capacity of the claimed spans
}

// HeapStats is the allocator-level space breakdown behind the Fig-8-style
// bytes-per-key figure: per-class occupancy (external fragmentation is
// CapBlocks−LiveBlocks), large-block pages, free pages, and the heap
// frontier.
type HeapStats struct {
	Classes     []ClassStats // one entry per class with claimed spans
	LargeBlocks uint64
	LargePages  uint64
	FreePages   uint64 // pages in free runs (below the frontier)
	BumpPages   uint64 // pages ever claimed
	NumPages    uint64
	InUseWords  uint64
	MetaWords   uint64
}

// Stats summarizes an arena heap's space usage.
func Stats(m Mem) HeapStats {
	h := parseHeap(m)
	var st HeapStats
	st.BumpPages = h.bump
	st.NumPages = h.numPages
	st.MetaWords = h.pagesStart
	var perClass [numClasses2]ClassStats
	for i := range h.segs {
		s := &h.segs[i]
		switch s.kind {
		case kindSpan:
			cs := &perClass[s.class]
			cs.Spans++
			cs.LiveBlocks += uint64(bits.OnesCount64(s.bm))
			cs.CapBlocks += classBlocks[s.class]
			st.InUseWords += uint64(bits.OnesCount64(s.bm)) * classSizes[s.class]
		case kindLarge:
			st.LargeBlocks++
			st.LargePages += s.npages
			st.InUseWords += s.npages * pageWords
		case kindFree:
			st.FreePages += s.npages
		}
	}
	for c := range perClass {
		if perClass[c].Spans > 0 {
			perClass[c].Size = classSizes[c]
			st.Classes = append(st.Classes, perClass[c])
		}
	}
	return st
}
