package obs

import "sync/atomic"

// This file adds the point-in-time primitive the counters deliberately are
// not: a Gauge is a single padded atomic cell holding the *current* value
// of something (frontier depth, cells in flight, workers active), written
// by whoever holds the fact and read by the debug endpoint.
// Unlike counters, gauges go down; unlike histograms, they have no memory.
// Writes are last-write-wins across goroutines — exactly right for a live
// "where is the search now" signal, and meaningless for anything that must
// be exact, which is what the counters are for.

// Gauge is a concurrent point-in-time value. The zero Gauge is ready to
// use. Set/Add/Load are single atomic operations and never allocate, so
// gauge updates are safe on the same hot paths as counter bumps.
type Gauge struct {
	_ pad
	v atomic.Int64
	_ pad
}

// Set stores the current value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adjusts the current value by n (use negative n to decrement); it
// returns the new value so callers can detect high-water marks.
func (g *Gauge) Add(n int64) int64 { return g.v.Add(n) }

// Load reads the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// SetMax raises the gauge to v if v is larger (racy-retry CAS, like the
// histogram's max tracking). Use for high-water marks such as the deepest
// frontier reached.
func (g *Gauge) SetMax(v int64) {
	for {
		m := g.v.Load()
		if v <= m || g.v.CompareAndSwap(m, v) {
			return
		}
	}
}
