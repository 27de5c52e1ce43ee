package explore

import "testing"

// TestExploreTelemetryAllocs pins the hot-loop cost: recording one node —
// counter bump, frontier gauges, depth histogram — must not allocate, and
// the stubbed zero-value surface must be equally free. This is the
// explorer analogue of the native backend's TestReadWriteAllocs.
func TestExploreTelemetryAllocs(t *testing.T) {
	m := newWalkMetrics()
	if a := testing.AllocsPerRun(1000, func() {
		m.node(12)
		m.inc(cXDedupHit)
		m.inc(cXSleepPrune)
		m.inc(cXTerminal)
	}); a != 0 {
		t.Errorf("enabled telemetry allocates %.1f per node, want 0", a)
	}
	var z walkMetrics
	if z.h.Enabled() {
		t.Fatal("zero walkMetrics reports enabled")
	}
	if a := testing.AllocsPerRun(1000, func() {
		z.node(12)
		z.inc(cXDedupHit)
		z.itemDone()
		z.sweepStart(30)
	}); a != 0 {
		t.Errorf("stubbed telemetry allocates %.1f per node, want 0", a)
	}
}
