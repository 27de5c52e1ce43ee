package exp

import (
	"testing"

	"wfadvice/internal/obs"
)

// TestEngineTelemetryCounts runs one synthetic experiment and checks the
// counter deltas and the latency histogram against exact expectations.
func TestEngineTelemetryCounts(t *testing.T) {
	syn := syntheticExperiment(12, nil)
	before := Telemetry.Snapshot()
	histBefore := cellLatency.Snapshot().Count
	NewEngine(Options{Seed: 1, Parallelism: 4}).Run(syn)
	m := Telemetry.Snapshot().Delta(before).Map()
	if m["exp_cell"] != 12 {
		t.Errorf("exp_cell delta = %d, want 12", m["exp_cell"])
	}
	if m["exp_experiment"] != 1 {
		t.Errorf("exp_experiment delta = %d, want 1", m["exp_experiment"])
	}
	if m["exp_cell_fail"] != 0 {
		t.Errorf("unexpected failure deltas: %v", m)
	}
	if got := cellLatency.Snapshot().Count - histBefore; got != 12 {
		t.Errorf("cell latency histogram grew by %d, want 12", got)
	}
	if g := Telemetry.Gauges()["exp_workers_active"]; g != 0 {
		t.Errorf("exp_workers_active = %d after the pool drained, want 0", g)
	}
}

// TestEngineTelemetryDisabled checks that obs.SetEnabled(false) stubs runs
// started afterwards: no counter moves, no histogram growth.
func TestEngineTelemetryDisabled(t *testing.T) {
	obs.SetEnabled(false)
	defer obs.SetEnabled(true)
	before := Telemetry.Snapshot()
	histBefore := cellLatency.Snapshot().Count
	NewEngine(Options{Seed: 1, Parallelism: 4}).Run(syntheticExperiment(8, nil))
	if d := Telemetry.Snapshot().Delta(before).Map(); len(d) != 0 {
		t.Errorf("disabled telemetry still moved counters: %v", d)
	}
	if got := cellLatency.Snapshot().Count - histBefore; got != 0 {
		t.Errorf("disabled telemetry still observed %d latencies", got)
	}
}
