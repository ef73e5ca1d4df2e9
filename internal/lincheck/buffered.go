package lincheck

import "sort"

// Buffered durable linearizability (Izraelevitz, Mendes & Scott) is the
// correctness condition for group commit: at a crash the engine may lose a
// SUFFIX of the commit order — everything past its durable-epoch watermark —
// but never a gap. Completed operations are no longer sacred the way plain
// durable linearizability makes them: an operation can return to its caller
// with its effect still buffered in DRAM, and a crash may erase it. What the
// condition does demand is
//
//   - prefix-closure: the surviving state corresponds to the commit order cut
//     at one watermark W — every effect with epoch <= W survives, every
//     effect with epoch > W vanishes. Keeping epoch 7 while losing epoch 5 is
//     gap loss, the failure mode buffering must never introduce; and
//   - sync pinning: a Sync that returned before the crash guarantees its
//     epoch is at or below the watermark, so everything the caller synced
//     survives.
//
// The checker segments the history at the crash timestamps. Each segment must
// linearize on its own from the state the previous crash left behind — this
// validates pre-crash observations of effects that were later lost, which are
// perfectly legal (they were live when observed). Then, for each crash, the
// checker enumerates watermark candidates W (never below the largest synced
// epoch), replays exactly the epoch-prefix of survivors in commit order to
// produce the next segment's initial state, and recurses. Gap-loss histories
// die structurally: no single cut explains a post-crash state that kept a
// later epoch while dropping an earlier one.
//
// Exactly-once (DupID) composes with buffering the way persistent dedup
// receipts really behave: a receipt commits in the same epoch as its
// operation, so losing the epoch loses the receipt, and a retry after the
// crash legitimately applies the request a "second" time — the first effect
// is gone. The checker therefore allows a later attempt iff every earlier
// executing attempt was lost at an intervening crash, and still rejects two
// attempts executing in one segment (the receipt is visible in DRAM the
// moment the first commits, synced or not) or any attempt executing after one
// survived (the durable receipt deduplicates it).

// BufferedOp is one operation of a crash-prone history produced under
// relaxed durability.
type BufferedOp struct {
	DurableOp
	// Epoch is the commit epoch the engine assigned: the position of this
	// operation's effect in the global commit order that crashes truncate.
	// Reads carry the epoch they observed (the engine's LastSeq after the
	// read). Epoch 0 on a completed operation means "no durable effect /
	// before any commit"; on a pending operation it means the epoch is
	// unknown — the crash hit before the harness could learn it — and the
	// checker enumerates its fate (never ran / ran and was lost / ran and
	// reached durability).
	Epoch uint64
	// Synced marks an operation whose epoch was pinned durable before the
	// segment's crash — the caller completed a Sync (or the operation was a
	// write with WriteOptions.Sync) covering it. The watermark enumeration never
	// drops below a synced epoch: losing a synced effect is a violation no
	// matter what else survives.
	Synced bool
}

// CheckBufferedDurable reports whether the crash-prone history is buffered
// durably linearizable with respect to model. crashes lists the crash
// timestamps in ascending order; an operation belongs to the segment its
// Call falls in, and pending operations must record the segment's crash time
// as their Return (the CheckDurable convention). Epochs are compared within
// a segment only, so harnesses may number them globally or per incarnation.
func CheckBufferedDurable(model Model, history []BufferedOp, crashes []int64) bool {
	for i := 1; i < len(crashes); i++ {
		if crashes[i] <= crashes[i-1] {
			panic("lincheck: crash timestamps must be strictly ascending")
		}
	}
	segs := make([][]BufferedOp, len(crashes)+1)
	for _, op := range history {
		k := sort.Search(len(crashes), func(i int) bool { return crashes[i] > op.Call })
		segs[k] = append(segs[k], op)
	}
	c := &bufChecker{model: model}
	return c.segment(segs, model.Init(), nil)
}

// fromState re-roots a model at an arbitrary state, so each segment's
// linearizability check starts from what the previous crash left behind.
type fromState struct {
	Model
	state any
}

func (m fromState) Init() any { return m.state }

// pendChoice is one fate of a pending operation at its segment's crash.
type pendChoice int

const (
	neverRan   pendChoice = iota // the crash preempted it before any effect
	ranEpoch                     // executed at its annotated epoch; survival follows the watermark
	ranLost                      // epoch unknown: executed, lost at the crash
	ranSurvive                   // epoch unknown: executed and reached durability (replays last)
)

type bufChecker struct {
	model Model
}

// segment checks segs[0] from state and recurses across its crash.
// surviving carries the DupIDs whose effect (and dedup receipt) is durable.
func (c *bufChecker) segment(segs [][]BufferedOp, state any, surviving map[uint64]bool) bool {
	if len(segs) == 0 {
		return true
	}
	seg := segs[0]
	last := len(segs) == 1
	var pending []int
	for i, op := range seg {
		if op.Pending {
			pending = append(pending, i)
		}
	}
	if len(pending) > maxPending {
		panic("lincheck: too many pending operations for the buffered search")
	}
	choices := make([]pendChoice, len(pending))
	var try func(p int) bool
	try = func(p int) bool {
		if p == len(pending) {
			return c.resolve(seg, segs[1:], pending, choices, state, surviving)
		}
		opts := []pendChoice{ranEpoch, neverRan}
		if !last && seg[pending[p]].Epoch == 0 {
			opts = []pendChoice{ranSurvive, ranLost, neverRan}
		}
		for _, ch := range opts {
			choices[p] = ch
			if try(p + 1) {
				return true
			}
		}
		return false
	}
	return try(0)
}

// resolve checks one pending-fate assignment for the head segment: the
// executing set must linearize from state, and (unless this is the final
// segment) some watermark cut must explain everything that follows.
func (c *bufChecker) resolve(seg []BufferedOp, rest [][]BufferedOp, pending []int, choices []pendChoice, state any, surviving map[uint64]bool) bool {
	kept := make([]bool, len(seg))
	for i, op := range seg {
		kept[i] = !op.Pending
	}
	for p, idx := range pending {
		kept[idx] = choices[p] != neverRan
	}
	choiceOf := func(i int) pendChoice {
		for p, idx := range pending {
			if idx == i {
				return choices[p]
			}
		}
		return ranEpoch
	}
	// Exactly-once: an attempt whose request already has a durable effect is
	// deduplicated by the surviving receipt, and two attempts in one segment
	// see each other's DRAM-committed receipt — either way, executing is
	// illegal for this assignment.
	dupHere := make(map[uint64]int)
	for i, op := range seg {
		if !kept[i] || op.DupID == 0 {
			continue
		}
		if surviving[op.DupID] {
			return false
		}
		if _, dup := dupHere[op.DupID]; dup {
			return false
		}
		dupHere[op.DupID] = i
	}
	// Intra-segment linearizability from the recovered state. Later-lost
	// operations participate: they were live when their contemporaries
	// observed them.
	ops := make([]Op, 0, len(seg))
	wild := make([]bool, 0, len(seg))
	for i, op := range seg {
		if !kept[i] {
			continue
		}
		ops = append(ops, op.Op)
		wild = append(wild, op.Pending)
	}
	if !checkWild(fromState{c.model, state}, ops, wild) {
		return false
	}
	if len(rest) == 0 {
		return true
	}
	// Watermark candidates: every executing epoch plus 0 (lose everything)
	// plus the sync floor itself, filtered to respect the floor.
	var maxSync uint64
	for i, op := range seg {
		if kept[i] && op.Synced && op.Epoch > maxSync {
			maxSync = op.Epoch
		}
	}
	candSet := map[uint64]bool{0: true, maxSync: true}
	for i, op := range seg {
		if kept[i] && op.Epoch > 0 {
			candSet[op.Epoch] = true
		}
	}
	cands := make([]uint64, 0, len(candSet))
	for w := range candSet {
		if w >= maxSync {
			cands = append(cands, w)
		}
	}
	// High to low: a correct engine usually lost little or nothing, so large
	// watermarks tend to succeed early.
	sort.Slice(cands, func(i, j int) bool { return cands[i] > cands[j] })
	for _, w := range cands {
		surv2 := make(map[uint64]bool, len(surviving)+len(dupHere))
		for id := range surviving {
			surv2[id] = true
		}
		for id, i := range dupHere {
			if c.survives(seg[i], choiceOf(i), w) {
				surv2[id] = true
			}
		}
		if c.replay(seg, kept, choiceOf, state, w, func(next any) bool {
			return c.segment(rest, next, surv2)
		}) {
			return true
		}
	}
	return false
}

// survives reports whether an executing operation's effect is durable at
// watermark w.
func (c *bufChecker) survives(op BufferedOp, ch pendChoice, w uint64) bool {
	if ch == ranSurvive {
		return true
	}
	if ch == ranLost {
		return false
	}
	return op.Epoch > 0 && op.Epoch <= w
}

// replay folds the epoch-prefix of survivors, in commit (epoch) order, into
// the post-crash state and hands each candidate state to next, reporting
// whether next accepted one. Completed survivors must reproduce their
// recorded results — commit order is the engine's linearization order —
// while pending survivors replay as wildcards. Unknown-epoch survivors
// replay after every annotated epoch: they were in flight at the crash, so
// nothing committed after them. Operations sharing an epoch committed in
// one combined transaction whose internal order the history does not
// record, so every order of such a group that respects real time is tried.
func (c *bufChecker) replay(seg []BufferedOp, kept []bool, choiceOf func(int) pendChoice, state any, w uint64, next func(any) bool) bool {
	type rep struct {
		op    BufferedOp
		epoch uint64
	}
	var reps []rep
	for i, op := range seg {
		if !kept[i] || !c.survives(op, choiceOf(i), w) {
			continue
		}
		e := op.Epoch
		if choiceOf(i) == ranSurvive {
			e = ^uint64(0)
		}
		reps = append(reps, rep{op: op, epoch: e})
	}
	sort.SliceStable(reps, func(i, j int) bool { return reps[i].epoch < reps[j].epoch })
	placed := make([]bool, len(reps))
	// fold places one more operation of the epoch group reps[lo:hi], then
	// moves on to the next group once the group is exhausted.
	var fold func(lo, hi, left int, st any) bool
	fold = func(lo, hi, left int, st any) bool {
		if left == 0 {
			if hi == len(reps) {
				return next(st)
			}
			end := hi
			for end < len(reps) && reps[end].epoch == reps[hi].epoch {
				end++
			}
			return fold(hi, end, end-hi, st)
		}
	candidates:
		for a := lo; a < hi; a++ {
			if placed[a] {
				continue
			}
			for b := lo; b < hi; b++ {
				if !placed[b] && b != a && reps[b].op.Return < reps[a].op.Call {
					continue candidates // b precedes a in real time
				}
			}
			st2, res := c.model.Step(st, reps[a].op.Op)
			if !reps[a].op.Pending && res != reps[a].op.Result {
				continue
			}
			placed[a] = true
			ok := fold(lo, hi, left-1, st2)
			placed[a] = false
			if ok {
				return true
			}
		}
		return false
	}
	return fold(0, 0, 0, state)
}
