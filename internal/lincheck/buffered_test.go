package lincheck

import "testing"

// be wraps a durable op with its commit epoch for the buffered checker.
func be(op DurableOp, epoch uint64) BufferedOp {
	return BufferedOp{DurableOp: op, Epoch: epoch}
}

// bs wraps a durable op with its commit epoch and marks it synced.
func bs(op DurableOp, epoch uint64) BufferedOp {
	return BufferedOp{DurableOp: op, Epoch: epoch, Synced: true}
}

// TestCheckBufferedDurableTable is the accept/reject table for the buffered
// checker: suffix loss is legal, gap loss never is, Sync pins the prefix,
// and pre-crash observers of later-lost effects are fine.
func TestCheckBufferedDurableTable(t *testing.T) {
	cases := []struct {
		name    string
		model   Model
		history []BufferedOp
		crashes []int64
		want    bool
	}{
		{
			// No crash: plain linearizability, epochs irrelevant.
			name:  "accept/no-crash",
			model: KVModel{},
			history: []BufferedOp{
				be(d(0, 1, 2, "put", 1, 10, 0), 1),
				be(d(0, 3, 4, "get", 1, 0, 10), 1),
			},
			want: true,
		},
		{
			// The headline relaxation: a COMPLETED but unsynced put may
			// vanish at the crash. Plain CheckDurable rejects this history.
			name:  "accept/completed-unsynced-suffix-lost",
			model: KVModel{},
			history: []BufferedOp{
				be(d(0, 1, 2, "put", 1, 10, 0), 1),
				be(d(0, 6, 7, "get", 1, 0, 0), 1),
			},
			crashes: []int64{5},
			want:    true,
		},
		{
			// ...and it may equally survive: the watermark is enumerated.
			name:  "accept/completed-unsynced-survived",
			model: KVModel{},
			history: []BufferedOp{
				be(d(0, 1, 2, "put", 1, 10, 0), 1),
				be(d(0, 6, 7, "get", 1, 0, 10), 1),
			},
			crashes: []int64{5},
			want:    true,
		},
		{
			// Overlapping puts combined into one transaction share its
			// epoch; the combiner may apply them in either order, so
			// either value may be the survivor.
			name:  "accept/shared-epoch-either-order",
			model: KVModel{},
			history: []BufferedOp{
				be(d(0, 1, 4, "put", 1, 10, 0), 1),
				be(d(1, 2, 3, "put", 1, 20, 0), 1),
				be(d(0, 6, 7, "get", 1, 0, 10), 1),
			},
			crashes: []int64{5},
			want:    true,
		},
		{
			// ...but only in an order real time allows: 20 was written
			// after 10 returned, so 10 cannot be the survivor.
			name:  "reject/shared-epoch-against-real-time",
			model: KVModel{},
			history: []BufferedOp{
				be(d(0, 1, 2, "put", 1, 10, 0), 1),
				be(d(1, 3, 4, "put", 1, 20, 0), 1),
				be(d(0, 6, 7, "get", 1, 0, 10), 1),
			},
			crashes: []int64{5},
			want:    false,
		},
		{
			// Gap loss, the defining violation: epoch 2 survived the crash
			// while epoch 1 vanished. No watermark cut explains it.
			name:  "reject/gap-loss",
			model: KVModel{},
			history: []BufferedOp{
				be(d(0, 1, 2, "put", 1, 10, 0), 1),
				be(d(0, 3, 4, "put", 2, 20, 0), 2),
				be(d(0, 6, 7, "get", 1, 0, 0), 2),  // epoch 1 gone
				be(d(0, 8, 9, "get", 2, 0, 20), 2), // epoch 2 kept
			},
			crashes: []int64{5},
			want:    false,
		},
		{
			// The same shape cut as a suffix is legal: epoch 2 lost, 1 kept.
			name:  "accept/suffix-loss-prefix-kept",
			model: KVModel{},
			history: []BufferedOp{
				be(d(0, 1, 2, "put", 1, 10, 0), 1),
				be(d(0, 3, 4, "put", 2, 20, 0), 2),
				be(d(0, 6, 7, "get", 1, 0, 10), 1),
				be(d(0, 8, 9, "get", 2, 0, 0), 1),
			},
			crashes: []int64{5},
			want:    true,
		},
		{
			// Sync pins the prefix: the caller synced epoch 2, so epochs 1
			// and 2 must both survive. Losing the synced epoch is rejected...
			name:  "reject/synced-epoch-lost",
			model: KVModel{},
			history: []BufferedOp{
				be(d(0, 1, 2, "put", 1, 10, 0), 1),
				bs(d(0, 3, 4, "put", 2, 20, 0), 2),
				be(d(0, 6, 7, "get", 2, 0, 0), 2),
			},
			crashes: []int64{5},
			want:    false,
		},
		{
			// ...as is losing anything BELOW the synced epoch: Sync makes the
			// whole prefix durable, not just its own operation.
			name:  "reject/sync-pins-earlier-epoch",
			model: KVModel{},
			history: []BufferedOp{
				be(d(0, 1, 2, "put", 1, 10, 0), 1),
				bs(d(0, 3, 4, "put", 2, 20, 0), 2),
				be(d(0, 6, 7, "get", 1, 0, 0), 2),
				be(d(0, 8, 9, "get", 2, 0, 20), 2),
			},
			crashes: []int64{5},
			want:    false,
		},
		{
			// A later unsynced epoch may still be lost above the sync floor.
			name:  "accept/loss-above-sync-floor",
			model: KVModel{},
			history: []BufferedOp{
				bs(d(0, 1, 2, "put", 1, 10, 0), 1),
				be(d(0, 3, 4, "put", 2, 20, 0), 2),
				be(d(0, 6, 7, "get", 1, 0, 10), 1),
				be(d(0, 8, 9, "get", 2, 0, 0), 1),
			},
			crashes: []int64{5},
			want:    true,
		},
		{
			// A pre-crash reader legally observed an effect the crash then
			// erased: the read happened while the epoch was live in DRAM.
			// Plain durable linearizability has no way to accept this.
			name:  "accept/lost-effect-observed-before-crash",
			model: KVModel{},
			history: []BufferedOp{
				be(d(0, 1, 2, "put", 1, 10, 0), 1),
				be(d(1, 3, 4, "get", 1, 0, 10), 1), // saw it pre-crash
				be(d(0, 6, 7, "get", 1, 0, 0), 1),  // gone after recovery
			},
			crashes: []int64{5},
			want:    true,
		},
		{
			// But pre-crash observations still have to linearize: a reader
			// cannot see an effect from the POST-crash future.
			name:  "reject/effect-from-the-future",
			model: KVModel{},
			history: []BufferedOp{
				be(d(0, 1, 2, "get", 1, 0, 99), 1),
				be(d(0, 6, 7, "put", 1, 99, 0), 2),
			},
			crashes: []int64{5},
			want:    false,
		},
		{
			// The post-crash state must also be CONSISTENT, not just any
			// subset: one recovered reader sees the lost value, a later one
			// does not.
			name:  "reject/post-crash-state-flickers",
			model: KVModel{},
			history: []BufferedOp{
				be(d(0, 1, 2, "put", 1, 10, 0), 1),
				be(d(0, 6, 7, "get", 1, 0, 10), 1),
				be(d(0, 8, 9, "get", 1, 0, 0), 1),
			},
			crashes: []int64{5},
			want:    false,
		},
		{
			// Overwrites within one lost suffix: recovery rolls BOTH back to
			// the synced base value — seeing the intermediate overwrite
			// survive alone would be gap loss between epochs 2 and 3.
			name:  "accept/overwrite-chain-rolls-back",
			model: KVModel{},
			history: []BufferedOp{
				bs(d(0, 1, 2, "put", 1, 10, 0), 1),
				be(d(0, 3, 4, "put", 1, 20, 0), 2),
				be(d(0, 5, 6, "put", 1, 30, 0), 3),
				be(d(0, 8, 9, "get", 1, 0, 10), 1),
			},
			crashes: []int64{7},
			want:    true,
		},
		{
			name:  "reject/overwrite-chain-gap",
			model: KVModel{},
			history: []BufferedOp{
				bs(d(0, 1, 2, "put", 1, 10, 0), 1),
				be(d(0, 3, 4, "put", 2, 20, 0), 2),
				be(d(0, 5, 6, "put", 1, 30, 0), 3),
				// epoch 3's overwrite survived but epoch 2's put is gone.
				be(d(0, 8, 9, "get", 1, 0, 30), 3),
				be(d(0, 10, 11, "get", 2, 0, 0), 3),
			},
			crashes: []int64{7},
			want:    false,
		},
		{
			// An op in flight at the crash may land in the durable prefix,
			// land in the lost suffix, or never have run at all. Absent
			// afterwards is legal...
			name:  "accept/pending-lost-or-never-ran",
			model: KVModel{},
			history: []BufferedOp{
				bs(d(0, 1, 2, "put", 1, 10, 0), 1),
				be(p(0, 3, 5, "put", 2, 20), 2),
				be(d(0, 6, 7, "get", 2, 0, 0), 1),
			},
			crashes: []int64{5},
			want:    true,
		},
		{
			// ...and so is present — but only together with every earlier
			// epoch. A surviving pending op drags the prefix with it.
			name:  "reject/pending-survives-without-its-prefix",
			model: KVModel{},
			history: []BufferedOp{
				be(d(0, 1, 2, "put", 1, 10, 0), 1),
				be(p(0, 3, 5, "put", 2, 20), 2),
				be(d(0, 6, 7, "get", 2, 0, 20), 2), // pending landed durably
				be(d(0, 8, 9, "get", 1, 0, 0), 2),  // but epoch 1 vanished
			},
			crashes: []int64{5},
			want:    false,
		},
		{
			// Two crashes: what survived the first is permanent — the second
			// crash cannot claw back an effect recovery already adopted.
			name:  "reject/survivor-lost-at-later-crash",
			model: KVModel{},
			history: []BufferedOp{
				be(d(0, 1, 2, "put", 1, 10, 0), 1),
				be(d(0, 6, 7, "get", 1, 0, 10), 1),  // survived crash 1
				be(d(0, 11, 12, "get", 1, 0, 0), 1), // gone after crash 2
			},
			crashes: []int64{5, 10},
			want:    false,
		},
		{
			// Two crashes, each losing its own unsynced suffix: legal.
			name:  "accept/two-crashes-two-suffixes",
			model: KVModel{},
			history: []BufferedOp{
				bs(d(0, 1, 2, "put", 1, 10, 0), 1),
				be(d(0, 3, 4, "put", 2, 20, 0), 2),
				// crash 1 loses epoch 2
				be(d(0, 6, 7, "get", 2, 0, 0), 1),
				be(d(0, 8, 9, "put", 3, 30, 0), 4),
				// crash 2 loses epoch 4
				be(d(0, 11, 12, "get", 1, 0, 10), 1),
				be(d(0, 13, 14, "get", 3, 0, 0), 1),
			},
			crashes: []int64{5, 10},
			want:    true,
		},
		{
			// Group commit proper: several operations share one epoch and
			// live or die together. Losing half an epoch is gap loss too.
			name:  "reject/half-an-epoch-lost",
			model: KVModel{},
			history: []BufferedOp{
				be(d(0, 1, 2, "put", 1, 10, 0), 1),
				be(d(1, 1, 2, "put", 2, 20, 0), 1),
				be(d(0, 6, 7, "get", 1, 0, 10), 1),
				be(d(0, 8, 9, "get", 2, 0, 0), 1),
			},
			crashes: []int64{5},
			want:    false,
		},
		{
			name:  "accept/whole-epoch-lost",
			model: KVModel{},
			history: []BufferedOp{
				be(d(0, 1, 2, "put", 1, 10, 0), 1),
				be(d(1, 1, 2, "put", 2, 20, 0), 1),
				be(d(0, 6, 7, "get", 1, 0, 0), 0),
				be(d(0, 8, 9, "get", 2, 0, 0), 0),
			},
			crashes: []int64{5},
			want:    true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := CheckBufferedDurable(tc.model, tc.history, tc.crashes); got != tc.want {
				t.Fatalf("CheckBufferedDurable = %v, want %v", got, tc.want)
			}
		})
	}
}

// TestCheckBufferedDurableExactlyOnce pins the DupID interaction: a dedup
// receipt commits in its operation's epoch, so a crash that loses the epoch
// loses the receipt and the retry legitimately re-applies — while a synced
// (surviving) receipt deduplicates every later attempt, and two attempts in
// one incarnation always see each other's DRAM receipt.
func TestCheckBufferedDurableExactlyOnce(t *testing.T) {
	cases := []struct {
		name    string
		model   Model
		history []BufferedOp
		crashes []int64
		want    bool
	}{
		{
			// COMPLETED attempt, epoch lost at the crash, retry applies the
			// request for real: counter ends at 1. CheckDurable rejects two
			// completed attempts of one request outright; buffered accepts
			// exactly this shape when the first attempt's epoch was lost.
			name:  "accept/receipt-lost-with-epoch-retry-applies",
			model: CounterModel{},
			history: []BufferedOp{
				be(dup(d(0, 1, 2, "inc", 0, 0, 1), 1), 1),
				be(dup(d(0, 6, 7, "inc", 0, 0, 1), 1), 1),
				be(d(0, 8, 9, "get", 0, 0, 1), 1),
			},
			crashes: []int64{5},
			want:    true,
		},
		{
			// The first attempt was SYNCED: its receipt survives, the retry
			// must be deduplicated — a second effective increment is the
			// duplicate the receipts exist to prevent.
			name:  "reject/synced-receipt-retry-applied-again",
			model: CounterModel{},
			history: []BufferedOp{
				bs(dup(d(0, 1, 2, "inc", 0, 0, 1), 1), 1),
				be(dup(d(0, 6, 7, "inc", 0, 0, 2), 1), 2),
				be(d(0, 8, 9, "get", 0, 0, 2), 2),
			},
			crashes: []int64{5},
			want:    false,
		},
		{
			// Surviving receipt + retry recorded as deduplicated (pending, so
			// the checker may treat it as never-applied): the legal outcome.
			name:  "accept/synced-receipt-retry-deduplicated",
			model: CounterModel{},
			history: []BufferedOp{
				bs(dup(d(0, 1, 2, "inc", 0, 0, 1), 1), 1),
				be(dup(p(0, 6, 10, "inc", 0, 0), 1), 0),
				be(d(0, 11, 12, "get", 0, 0, 1), 1),
			},
			crashes: []int64{5, 10},
			want:    true,
		},
		{
			// Two attempts inside ONE incarnation both taking effect: the
			// first receipt is visible in DRAM the moment it commits, synced
			// or not, so the second execution is always a duplicate.
			name:  "reject/same-incarnation-double-apply",
			model: CounterModel{},
			history: []BufferedOp{
				be(dup(d(0, 1, 2, "inc", 0, 0, 1), 1), 1),
				be(dup(d(0, 3, 4, "inc", 0, 0, 2), 1), 2),
				be(d(0, 5, 6, "get", 0, 0, 2), 2),
			},
			want: false,
		},
		{
			// Pending attempt whose epoch is unknown, then a completed retry:
			// the checker may resolve the original as lost (or never-run) and
			// the retry applies once.
			name:  "accept/pending-attempt-then-retry",
			model: CounterModel{},
			history: []BufferedOp{
				be(dup(p(0, 1, 5, "inc", 0, 0), 1), 0),
				be(dup(d(0, 6, 7, "inc", 0, 0, 1), 1), 1),
				be(d(0, 8, 9, "get", 0, 0, 1), 1),
			},
			crashes: []int64{5},
			want:    true,
		},
		{
			// Ungrouped control: without DupID the same double-apply history
			// is accepted, proving the DupID is what tightens the check.
			name:  "accept/ungrouped-attempts-may-both-land",
			model: CounterModel{},
			history: []BufferedOp{
				be(d(0, 1, 2, "inc", 0, 0, 1), 1),
				be(d(0, 6, 7, "inc", 0, 0, 2), 1),
				be(d(0, 8, 9, "get", 0, 0, 2), 1),
			},
			crashes: []int64{5},
			want:    true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := CheckBufferedDurable(tc.model, tc.history, tc.crashes); got != tc.want {
				t.Fatalf("CheckBufferedDurable = %v, want %v", got, tc.want)
			}
		})
	}
}

// FuzzBufferedEpochBoundaries mutates where the epoch boundaries fall in a
// generated put stream — how many commits share each group-commit epoch, how
// much of the commit order the crash truncates, and which prefix was synced —
// and checks both directions: the honest suffix-truncated history is always
// accepted, and the same history with one mid-prefix key knocked out (a gap)
// or the watermark forced below the sync floor is always rejected.
func FuzzBufferedEpochBoundaries(f *testing.F) {
	f.Add(uint8(4), uint8(0b0101), uint8(2), uint8(1))
	f.Add(uint8(6), uint8(0b110010), uint8(3), uint8(0))
	f.Add(uint8(1), uint8(0), uint8(0), uint8(0))
	f.Add(uint8(5), uint8(0xff), uint8(5), uint8(3))
	f.Fuzz(func(t *testing.T, nRaw, boundaries, cutRaw, syncRaw uint8) {
		n := int(nRaw%6) + 1 // 1..6 puts
		// Epoch assignment: put i starts a new epoch iff bit i of boundaries
		// is set — this is the "mutate the epoch boundaries" axis.
		epochs := make([]uint64, n)
		e := uint64(1)
		for i := 0; i < n; i++ {
			if i > 0 && boundaries&(1<<i) != 0 {
				e++
			}
			epochs[i] = e
		}
		// The crash keeps the commit-order prefix of puts 0..cut-1, which
		// must be epoch-aligned: extend the cut to the end of its epoch.
		cut := int(cutRaw) % (n + 1)
		for cut > 0 && cut < n && epochs[cut] == epochs[cut-1] {
			cut++
		}
		// A synced put pins everything up to it; pick one inside the kept
		// prefix (or none).
		sync := -1
		if cut > 0 {
			sync = int(syncRaw) % cut
		}
		var h []BufferedOp
		ts := int64(1)
		for i := 0; i < n; i++ {
			op := d(0, ts, ts+1, "put", uint64(i+1), uint64(100+i), 0)
			ts += 2
			if i == sync {
				h = append(h, bs(op, epochs[i]))
			} else {
				h = append(h, be(op, epochs[i]))
			}
		}
		crash := ts
		ts++
		// post builds the recovered-reader tail: get every key, expecting
		// exactly the keys the predicate says survived. (Epoch annotations
		// on final-segment reads are irrelevant — no crash follows them.)
		post := func(survived func(i int) bool) []BufferedOp {
			out := append([]BufferedOp(nil), h...)
			t2 := ts
			for i := 0; i < n; i++ {
				want := uint64(0)
				if survived(i) {
					want = uint64(100 + i)
				}
				out = append(out, be(d(0, t2, t2+1, "get", uint64(i+1), 0, want), 0))
				t2 += 2
			}
			return out
		}
		honest := post(func(i int) bool { return i < cut })
		if !CheckBufferedDurable(KVModel{}, honest, []int64{crash}) {
			t.Fatalf("honest suffix truncation rejected: n=%d epochs=%v cut=%d sync=%d", n, epochs, cut, sync)
		}
		// Gap mutation: knock the FIRST put out of the kept prefix while
		// keeping a later one — never a legal cut, whatever the boundaries.
		if cut >= 2 {
			gap := post(func(i int) bool { return i < cut && i != 0 })
			if CheckBufferedDurable(KVModel{}, gap, []int64{crash}) {
				t.Fatalf("gap loss accepted: n=%d epochs=%v cut=%d", n, epochs, cut)
			}
		}
		// Sync-floor mutation: lose everything, including the synced epoch.
		if sync >= 0 {
			floor := post(func(i int) bool { return false })
			if CheckBufferedDurable(KVModel{}, floor, []int64{crash}) {
				t.Fatalf("synced epoch lost but accepted: n=%d epochs=%v sync=%d", n, epochs, sync)
			}
		}
	})
}
