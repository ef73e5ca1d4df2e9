package main

import (
	"encoding/json"
	"math"
	"sort"
	"time"
)

// metric is one named measurement as printed on the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r result) JSON() string {
	b, err := json.Marshal(r)
	if err != nil {
		panic(err) // plain structs of floats and strings always marshal
	}
	return string(b)
}

// latencies collects raw per-operation durations in nanoseconds.
// Percentiles are computed from the raw samples, never from histogram
// buckets (obs.Histogram quantiles are bucket floors about 6% apart).
type latencies []int64

func (l *latencies) add(d time.Duration) { *l = append(*l, int64(d)) }

func (l latencies) quantile(q float64) float64 {
	v := make([]float64, len(l))
	for i, x := range l {
		v[i] = float64(x)
	}
	return quantile(v, q)
}

// quantile returns the q-quantile of v by linear interpolation between the
// two nearest ranks (the "type 7" estimator), or 0 for an empty set. It
// sorts v.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sort.Float64s(v)
	pos := q * float64(len(v)-1)
	lo, hi := int(math.Floor(pos)), int(math.Ceil(pos))
	return v[lo] + (pos-float64(lo))*(v[hi]-v[lo])
}

func (l latencies) max() int64 {
	var m int64
	for _, v := range l {
		m = max(m, v)
	}
	return m
}

// sumOver totals the samples longer than limit.
func (l latencies) sumOver(limit time.Duration) int64 {
	var s int64
	for _, v := range l {
		if v > int64(limit) {
			s += v
		}
	}
	return s
}

func ms(ns float64) float64 { return ns / 1e6 }
func us(ns float64) float64 { return ns / 1e3 }

// ratio is a/b, or 0 when b is 0 (a layer the workload never reached).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// window is a stretch of consecutive rounds of a timed phase. Rates and
// percentiles are computed per window and reported as the median over the
// windows, so a stall of the shared machine in one window moves one value
// of the set rather than the result.
type window struct {
	writeOps, readOps   int64
	writeTime, readTime time.Duration
	writes, reads       latencies
}

// windows collects the rounds of one timed phase into windows of at least
// size each.
type windows struct {
	size time.Duration
	list []window
}

// add folds one round into the current window, opening a new window once
// the current one has lasted size.
func (s *windows) add(d time.Duration, writeOps, readOps int64, writes, reads latencies) {
	if len(s.list) == 0 || s.list[len(s.list)-1].writeTime >= s.size {
		s.list = append(s.list, window{})
	}
	w := &s.list[len(s.list)-1]
	w.writeOps += writeOps
	w.readOps += readOps
	w.writeTime += d
	w.readTime += d
	w.writes = append(w.writes, writes...)
	w.reads = append(w.reads, reads...)
}

// median returns the median of f over the windows.
func (s *windows) median(f func(w *window) float64) float64 {
	vals := make([]float64, len(s.list))
	for i := range s.list {
		vals[i] = f(&s.list[i])
	}
	return quantile(vals, 0.5)
}

// writeOps totals the writes over every window.
func (s *windows) writeOps() int64 {
	var n int64
	for _, w := range s.list {
		n += w.writeOps
	}
	return n
}

// endToEnd is what every workload reports with tracing off.
type endToEnd struct {
	setup     latencies // one sample per set-up
	tput      windows   // the throughput phase
	lat       windows   // the latency phase (the same rounds, except on net-ycsb-a)
	recovery  latencies // reopen-to-first-write, one sample per reopen
	heapBytes uint64    // heap bytes in use on the live replica(s)
	liveKeys  uint64
	pwbs      uint64 // pwbs over all pools in the throughput phase
}

func (e *endToEnd) metrics() map[string]metric {
	lat := func(reads bool, q float64) float64 {
		return us(e.lat.median(func(w *window) float64 {
			if reads {
				return w.reads.quantile(q)
			}
			return w.writes.quantile(q)
		}))
	}
	// The tail reported is p95, not p99. On net-ycsb-a a request takes
	// 20-40 us, so the 1-2% of requests that a timer tick or a host
	// preemption of a shared virtual machine lands on sit at the p99:
	// over ten 30 s runs on a 2-vCPU VM its p99s spread 0.24-0.25 (the
	// bound) while its p50s spread 0.07-0.08; its p95s spread 0.11-0.15
	// in a noisier set. See README.md, "Noise".
	return map[string]metric{
		"setup_s": {e.setup.quantile(0.5) / 1e9, "s"},
		"write_ops_per_s": {e.tput.median(func(w *window) float64 {
			return ratio(float64(w.writeOps), w.writeTime.Seconds())
		}), "1/s"},
		"read_ops_per_s": {e.tput.median(func(w *window) float64 {
			return ratio(float64(w.readOps), w.readTime.Seconds())
		}), "1/s"},
		"write_p50_us":      {lat(false, 0.50), "us"},
		"write_p95_us":      {lat(false, 0.95), "us"},
		"read_p50_us":       {lat(true, 0.50), "us"},
		"read_p95_us":       {lat(true, 0.95), "us"},
		"recover_ms":        {ms(e.recovery.quantile(0.5)), "ms"},
		"nvm_bytes_per_key": {ratio(float64(e.heapBytes), float64(e.liveKeys)), "B"},
		"pwbs_per_write":    {ratio(float64(e.pwbs), float64(e.tput.writeOps())), "1"},
	}
}
