// Package obs is the native backend's observability substrate: a
// zero-allocation runtime metrics core (striped atomic counters with
// pre-resolved handles), fixed-size log-bucketed latency histograms with
// online percentiles, a lock-free ring-buffer event tracer for decision
// lifecycles, and an http.Handler that serves it all live (Prometheus-text
// /metrics, /trace dumps, pprof, expvar).
//
// The package is deliberately generic — each instrumented layer declares
// its own counters, gauges and histograms as one Taxonomy (taxonomy.go) and
// its own event kinds — and deliberately allocation-free on every
// record path: a counter bump is one atomic add on a pre-resolved cell, a
// histogram observation is an index computation plus two atomic adds, a
// trace emit is a handful of atomic stores into a claimed ring slot.
// Snapshots, dumps and exports allocate; they run off the hot path.
package obs

import "sync/atomic"

// pad is one cache line of padding; interposed between striped blocks so
// unrelated stripes never false-share.
type pad [64]byte

// CounterID indexes a counter within a layer's Taxonomy. The instrumented
// layer defines its IDs as consecutive constants keying the name slice it
// passes to NewTaxonomy.
type CounterID int

// counterStripes is the number of independent counter blocks. Handles are
// assigned to stripes round-robin; with one handle per process goroutine
// (the native Env granularity) two goroutines share a stripe only when
// more than counterStripes are live at once, and even then they contend
// only on the cells they both bump.
const counterStripes = 64

// block is one stripe: a padded run of cells, one per counter. Cells
// within a block are bumped by (almost always) one goroutine, so they may
// share lines with each other but never with another stripe's.
type block struct {
	_ pad
	v []atomic.Int64
	_ pad
}

// Handle is a pre-resolved reference to one stripe of a layer's counters,
// minted by Taxonomy.Handle. Every layer mints its handles at construction,
// so there is no zero Handle on any record path.
type Handle struct {
	v []atomic.Int64
}

// Inc adds 1 to the counter: a single atomic add on a pre-resolved cell.
func (h Handle) Inc(id CounterID) { h.v[id].Add(1) }

// Add adds n to the counter.
func (h Handle) Add(id CounterID, n int64) { h.v[id].Add(n) }

// Snapshot is a point-in-time reading of every counter in a set. Each
// counter's value is monotone and exact once recorders have quiesced;
// while they are running the snapshot is consistent per counter (a single
// total never goes backwards between two snapshots) but the set is not
// cut at one instant across counters — bumps may land between the
// per-stripe loads. That is the right trade for a hot path that must not
// synchronize with readers.
type Snapshot struct {
	names []string
	vals  []int64
}

// Get returns one counter's value.
func (s Snapshot) Get(id CounterID) int64 {
	if int(id) < 0 || int(id) >= len(s.vals) {
		return 0
	}
	return s.vals[id]
}

// Delta returns s - prev per counter. prev must come from the same
// Taxonomy (same names); a zero prev yields s itself.
func (s Snapshot) Delta(prev Snapshot) Snapshot {
	d := Snapshot{names: s.names, vals: make([]int64, len(s.vals))}
	copy(d.vals, s.vals)
	for i := range prev.vals {
		if i < len(d.vals) {
			d.vals[i] -= prev.vals[i]
		}
	}
	return d
}

// Map renders the snapshot as name → value, dropping zero counters (the
// JSON-report form: absent means "did not happen", and old reports without
// the field parse identically to all-zero).
func (s Snapshot) Map() map[string]int64 {
	m := make(map[string]int64, len(s.vals))
	for i, v := range s.vals {
		if v != 0 {
			m[s.names[i]] = v
		}
	}
	return m
}
