package main

import (
	"encoding/json"
	"errors"
	"os"
	"testing"

	"repro/internal/load"
	"repro/internal/pmem"
	"repro/internal/redodb"
)

func TestValueRoundTrip(t *testing.T) {
	id := valueID{key: 12345, writer: 1, seq: 1 << 33}
	v := appendValue(nil, id)
	if len(v) != valueSize {
		t.Fatalf("value is %d bytes, want %d", len(v), valueSize)
	}
	got, err := readOf(id.key, v)
	if err != nil || got != id {
		t.Fatalf("readOf = %+v, %v; want %+v", got, err, id)
	}
	if p := unpackID(packID(id)); p != id {
		t.Fatalf("unpackID(packID) = %+v, want %+v", p, id)
	}
}

func TestCheckerRejectsWrongValue(t *testing.T) {
	v := appendValue(nil, valueID{key: 7, writer: 0, seq: 0})
	if _, err := readOf(8, v); !errors.Is(err, errWrongKey) {
		t.Errorf("value of key 7 read for key 8: err = %v, want %v", err, errWrongKey)
	}
	v[40] ^= 1
	if _, err := readOf(7, v); !errors.Is(err, errChecksum) {
		t.Errorf("corrupted value: err = %v, want %v", err, errChecksum)
	}
	if _, err := readOf(7, v[:50]); err == nil {
		t.Error("short value accepted")
	}

	// A well-formed value for the right key that no writer ever wrote.
	h := newHistory(1, 16)
	h.next(0, 3)
	var r observer
	r.observe(3, appendValue(nil, valueID{key: 3, writer: 0, seq: 1}), true)
	var c checks
	r.verify(h, &c)
	if c.failed != 1 {
		t.Errorf("never-written value: %d failures, want 1", c.failed)
	}
}

func TestCheckerRejectsMissingKey(t *testing.T) {
	var r observer
	r.observe(3, nil, false)
	if r.failed != 1 {
		t.Errorf("missing key on read: %d failures, want 1", r.failed)
	}
	h := newHistory(1, 4)
	var c checks
	get := func(dst, key []byte) ([]byte, bool) {
		if string(key) == string(load.KeyBytes(nil, 2)) {
			return nil, false
		}
		return nil, true
	}
	checkFinal(&c, get, h, 3)
	if c.failed != 3 {
		// Key 2 is missing; keys 0 and 1 return an empty value.
		t.Errorf("final check: %d failures, want 3", c.failed)
	}
}

func TestCheckerRejectsStaleFinal(t *testing.T) {
	h := newHistory(2, 8)
	older := h.next(0, 5)
	h.acked(older)
	newer := h.next(0, 5)
	h.acked(newer)
	other := h.next(1, 5)
	h.acked(other)

	for _, tc := range []struct {
		name string
		id   valueID
		want error
	}{
		{"last write of writer 0", newer, nil},
		{"last write of writer 1", other, nil},
		{"overwritten write", older, errStale},
		{"set-up value of a written key", valueID{key: 5, writer: preloadWriter, seq: 5}, errStale},
	} {
		if err := h.checkFinal(5, appendValue(nil, tc.id)); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
	if err := h.checkFinal(6, appendValue(nil, valueID{key: 6, writer: preloadWriter, seq: 6})); err != nil {
		t.Errorf("set-up value of an unwritten key: %v", err)
	}
}

// TestFillCheckRejectsCorruptStore feeds the fill checks a store holding a
// wrong value and one missing key.
func TestFillCheckRejectsCorruptStore(t *testing.T) {
	const n = 8
	f := &filler{o: newOutcome(config{}), keys: make([][]byte, n), vals: make([][]byte, n)}
	order := make([]int, n)
	for k := range order {
		order[k] = k
		f.keys[k] = load.KeyBytes(nil, uint64(k))
		f.vals[k] = appendValue(nil, valueID{key: uint64(k), seq: uint64(k)})
	}
	db := redodb.Open(pmem.New(pmem.Config{Mode: pmem.Direct, RegionWords: 1 << 14, Regions: 2}), redodb.Options{})
	s := db.Session(0)
	for k := 0; k < n-1; k++ { // key n-1 is never written
		s.Put(f.keys[k], f.vals[k])
	}
	s.Put(f.keys[2], f.vals[3])
	f.checkStore(db, order, true)
	// Len is short by one, key 2 holds key 3's value, key n-1 is missing.
	if f.o.failed != 3 {
		t.Errorf("%d failures, want 3: %v", f.o.failed, f.o.errs)
	}
}

func TestQuantile(t *testing.T) {
	l := latencies{40, 10, 30, 20}
	if got := l.quantile(0.5); got != 25 {
		t.Errorf("median = %v, want 25", got)
	}
	if got := l.quantile(1); got != 40 {
		t.Errorf("max = %v, want 40", got)
	}
}

// TestWorkloadsSmoke runs one round of every phase of every workload,
// traced and untraced, and requires every check to pass.
func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds full-size stores")
	}
	for name, run := range workloads {
		for _, trace := range []bool{false, true} {
			o := run(config{seed: 3, seconds: 1, trace: trace})
			if err := o.lay.tally.err(); err != nil {
				t.Errorf("%s trace=%v: %v", name, trace, err)
			}
			if o.failed != 0 || o.attempted == 0 {
				t.Errorf("%s trace=%v: %d of %d failed: %v", name, trace, o.failed, o.attempted, o.errs)
			}
			m := o.e2e.metrics()
			if trace {
				m = o.lay.metrics()
			}
			for k, v := range m {
				if v.Value < 0 {
					t.Errorf("%s trace=%v: %s = %v", name, trace, k, v.Value)
				}
			}
		}
	}
}

// TestMetricNamesMatchBenchmarkJSON keeps the printed metrics and units in
// step with the metrics BENCHMARK.json declares.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	o := newOutcome(config{trace: true})
	for _, c := range []struct {
		kind     string
		declared []struct{ Name, Unit string }
		printed  map[string]metric
	}{
		{"end_to_end", b.EndToEnd, o.e2e.metrics()},
		{"per_layer", b.PerLayer, o.lay.metrics()},
	} {
		if len(c.declared) != len(c.printed) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the benchmark prints %d", c.kind, len(c.declared), len(c.printed))
		}
		for _, d := range c.declared {
			if m, ok := c.printed[d.Name]; !ok || m.Unit != d.Unit {
				t.Errorf("%s: %s [%s] declared, printed as %+v (present %v)", c.kind, d.Name, d.Unit, m, ok)
			}
		}
	}
}
