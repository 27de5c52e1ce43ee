package obs

import "time"

// This file is the windowed sampler behind the `-progress` heartbeats and
// the live progress endpoints: it turns a layer's monotone counters into
// rates by snapshotting on a cadence and differencing consecutive
// snapshots. Sampling runs strictly off the hot path (one stripe-summing
// snapshot per window, allocating freely); the recorded counters pay
// nothing for being watched.

// Sampler produces windowed counter-delta observations of one layer's
// counters. It is single-consumer: one goroutine (the heartbeat loop, the
// progress handler) calls Sample; the counters themselves may be bumped
// by any number of recorders meanwhile.
type Sampler struct {
	t      *Taxonomy
	start  time.Time
	prev   Snapshot
	prevAt time.Time
}

// NewSampler snapshots t to anchor the first window and returns the
// sampler. Rates reported by the first Sample cover creation → first call.
func NewSampler(t *Taxonomy) *Sampler {
	now := time.Now()
	return &Sampler{t: t, start: now, prev: t.Snapshot(), prevAt: now}
}

// Sample closes the current window: it snapshots the counters, diffs
// against the previous sample, and returns the window. Call it on the
// heartbeat cadence; each window covers exactly the span since the
// previous call.
func (s *Sampler) Sample() Window {
	now := time.Now()
	cur := s.t.Snapshot()
	w := Window{
		Elapsed: now.Sub(s.start),
		Span:    now.Sub(s.prevAt),
		Total:   cur,
		Delta:   cur.Delta(s.prev),
	}
	s.prev, s.prevAt = cur, now
	return w
}

// Window is one closed sampling window: the cumulative totals at its end,
// the per-counter deltas across it, and its wall-clock extent.
type Window struct {
	// Elapsed is the time from sampler creation to the window's end.
	Elapsed time.Duration
	// Span is the window's own length (end minus previous sample).
	Span time.Duration
	// Total is the cumulative snapshot at the window's end.
	Total Snapshot
	// Delta is Total minus the previous window's Total.
	Delta Snapshot
}

// Rates renders every counter that moved during the window as
// name → events/second (the progress-JSON form; zeros omitted like
// Snapshot.Map).
func (w Window) Rates() map[string]float64 {
	s := w.Span.Seconds()
	out := make(map[string]float64)
	if s <= 0 {
		return out
	}
	for name, n := range w.Delta.Map() {
		out[name] = float64(n) / s
	}
	return out
}
