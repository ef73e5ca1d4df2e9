package chaos

import (
	"reflect"
	"strings"
	"testing"
)

// fastEngines is a cheap representative subset for smoke tests: one
// replica-based PTM, the one-line log, a KV store, and the multi-pool
// sharded front-end (whose runner crosses the batch coordinator).
var fastEngines = []string{"RedoOpt-PTM", "ONLL", "rockssim", "shardeddb-2"}

func TestSweepSmoke(t *testing.T) {
	for _, name := range fastEngines {
		for _, adv := range []bool{false, true} {
			crashes, err := Sweep(name, Options{Ops: 6, Stride: 23, Adversarial: adv})
			if err != nil {
				t.Errorf("%s adversarial=%v: %v", name, adv, err)
			}
			if crashes == 0 {
				t.Errorf("%s adversarial=%v: no crash points explored", name, adv)
			}
		}
	}
}

func TestNestedSweepSmoke(t *testing.T) {
	for _, name := range fastEngines {
		for _, adv := range []bool{false, true} {
			pairs, err := NestedSweep(name, Options{Ops: 6, Stride: 43, Stride2: 3, Adversarial: adv})
			if err != nil {
				t.Errorf("%s adversarial=%v: %v", name, adv, err)
			}
			if pairs == 0 {
				t.Errorf("%s adversarial=%v: no crash pairs explored", name, adv)
			}
		}
	}
}

func TestCorruptionSweepSmoke(t *testing.T) {
	for _, name := range fastEngines {
		flips, err := CorruptionSweep(name, Options{Ops: 6, Stride: 23, Flips: 2})
		if err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if flips == 0 {
			t.Errorf("%s: no bit flips exercised", name)
		}
	}
}

// TestBufferedEpochBoundarySweep crashes the buffered engines at EVERY
// persistent-memory instruction boundary (stride 1) under both crash models.
// The workload seals an epoch every few inserts, so the sweep hits every
// point before, inside and after each epoch seal and watermark advance; the
// buffered Verify asserts recovery never panics, never loses a sealed
// epoch, and never recovers a gapped suffix.
func TestBufferedEpochBoundarySweep(t *testing.T) {
	for _, e := range Engines() {
		if !e.Buffered {
			continue
		}
		name := e.Name
		for _, adv := range []bool{false, true} {
			crashes, err := Sweep(name, Options{Ops: 8, Stride: 1, Adversarial: adv})
			if err != nil {
				t.Errorf("%s adversarial=%v: %v", name, adv, err)
			}
			if crashes == 0 {
				t.Errorf("%s adversarial=%v: no crash points explored", name, adv)
			}
		}
	}
}

// TestBufferedNestedSweepSmoke re-crashes buffered recovery itself: the
// second crash lands while recovery re-adopts the watermark replica, the
// fixed-point companion to redodb's TestBufferedWatermarkAdvanceRecrash at
// the sweep level.
func TestBufferedNestedSweepSmoke(t *testing.T) {
	for _, name := range []string{"redodb-buffered-d2", "shardeddb-buffered-8"} {
		for _, adv := range []bool{false, true} {
			pairs, err := NestedSweep(name, Options{Ops: 6, Stride: 43, Stride2: 3, Adversarial: adv})
			if err != nil {
				t.Errorf("%s adversarial=%v: %v", name, adv, err)
			}
			if pairs == 0 {
				t.Errorf("%s adversarial=%v: no crash pairs explored", name, adv)
			}
		}
	}
}

// TestBufferedCorruptionSweepSmoke flips bits in the spans buffered recovery
// must not trust — the unsealed replicas beyond the watermark included.
func TestBufferedCorruptionSweepSmoke(t *testing.T) {
	for _, name := range []string{"redodb-buffered-d2", "shardeddb-buffered-1"} {
		flips, err := CorruptionSweep(name, Options{Ops: 6, Stride: 23, Flips: 2})
		if err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if flips == 0 {
			t.Errorf("%s: no bit flips exercised", name)
		}
	}
}

// TestEngineTable pins the crash-sweep engine table: names are unique, every
// row is complete, the row set is exactly the acceptance list (crashcheck
// output and ci.sh's -engine patterns depend on the names), and an unknown
// name is an error that lists the known ones.
func TestEngineTable(t *testing.T) {
	want := []string{
		"RedoOpt-PTM", "RedoTimed-PTM", "Redo-PTM",
		"CX-PTM", "CX-PUC", "OneFile", "RomulusLR", "PSim-CoW", "PMDK",
		"ONLL", "redodb", "redodb-bulkval", "rockssim",
		"shardeddb-1", "shardeddb-2", "shardeddb-8",
		"redodb-buffered-d2", "redodb-buffered-d8",
		"shardeddb-buffered-1", "shardeddb-buffered-8",
	}
	var got []string
	seen := map[string]bool{}
	for _, e := range Engines() {
		if seen[e.Name] {
			t.Errorf("duplicate engine name %q", e.Name)
		}
		seen[e.Name] = true
		got = append(got, e.Name)
		if e.Group == nil || e.Runner == nil || e.Stale == nil {
			t.Errorf("%s: incomplete row (Group %v, Runner %v, Stale %v)",
				e.Name, e.Group != nil, e.Runner != nil, e.Stale != nil)
		}
		if r, err := Lookup(e.Name); err != nil || r.Name != e.Name {
			t.Errorf("Lookup(%s) = %q, %v", e.Name, r.Name, err)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("engine table = %v\nwant %v", got, want)
	}
	_, err := Lookup("nope")
	if err == nil || !strings.Contains(err.Error(), "shardeddb-buffered-8") {
		t.Errorf("Lookup(nope) = %v, want an error listing the known engines", err)
	}

	seen = map[string]bool{}
	for _, e := range StormEngines() {
		if seen[e.Name] || e.Group == nil || e.Runner == nil {
			t.Errorf("storm engine %q: duplicate or incomplete row", e.Name)
		}
		seen[e.Name] = true
	}
	if _, err := LookupStorm("nope"); err == nil || !strings.Contains(err.Error(), "detect-redodb") {
		t.Errorf("LookupStorm(nope) = %v, want an error listing the known engines", err)
	}
}

// FuzzNestedCrashPoint feeds arbitrary (first, second) crash-point pairs to
// the nested checker: crash the workload after `first` persistent-memory
// events, crash recovery after `second` more, recover fully, verify. Any
// pair must recover consistently under both crash models.
func FuzzNestedCrashPoint(f *testing.F) {
	f.Add(int64(1), int64(1))
	f.Add(int64(7), int64(2))
	f.Add(int64(23), int64(5))
	f.Add(int64(57), int64(1))
	f.Add(int64(113), int64(9))
	f.Fuzz(func(t *testing.T, first, second int64) {
		// Bound the points so a wild input cannot make the workload
		// run for minutes; the workload outruns large values anyway.
		first %= 4096
		second %= 4096
		for _, name := range []string{"RedoOpt-PTM", "ONLL", "shardeddb-2", "redodb-buffered-d2", "shardeddb-buffered-1"} {
			for _, adv := range []bool{false, true} {
				opts := Options{Ops: 6, Adversarial: adv, Seed: first ^ second<<13 | 1}
				if err := CheckPair(name, opts, first, second); err != nil {
					t.Errorf("%s adversarial=%v pair (%d,%d): %v", name, adv, first, second, err)
				}
			}
		}
	})
}
