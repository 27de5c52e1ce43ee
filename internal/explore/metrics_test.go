package explore

import "testing"

// TestExploreTelemetryAllocs pins the hot-loop cost: recording one node —
// counter bump, frontier gauges, depth histogram, item progress — must not
// allocate. This
// is the explorer analogue of the native backend's TestReadWriteAllocs.
func TestExploreTelemetryAllocs(t *testing.T) {
	m := newWalkMetrics()
	if a := testing.AllocsPerRun(1000, func() {
		m.node(12)
		m.inc(cXDedupHit)
		m.inc(cXSleepPrune)
		m.inc(cXTerminal)
		m.itemDone()
		m.sweepStart(30)
	}); a != 0 {
		t.Errorf("telemetry allocates %.1f per node, want 0", a)
	}
}
