//go:build race

package shardeddb

// raceEnabled reports whether the race detector is instrumenting this build;
// allocation-count pins skip under it (instrumentation allocates).
const raceEnabled = true
