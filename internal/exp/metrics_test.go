package exp

import (
	"strings"
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
	if m["exp_cell_fail"] != 0 || m["exp_cell_timeout"] != 0 {
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

// TestEngineTelemetryDeterminism is the PR's determinism guard at the
// experiment layer: the full rendered table set must be byte-identical
// with telemetry enabled and stubbed, at one worker and at eight —
// counters, gauges and the latency histogram sit strictly outside Table.
// The one switch stubs the engine and the sim runtimes under the trials
// together. Under -short the grid shrinks to the seeded
// search experiments; the full job runs every non-measured experiment —
// exactly the `efd-bench -short -skip-measured` table set.
func TestEngineTelemetryDeterminism(t *testing.T) {
	var xs []Experiment
	for _, x := range Experiments() {
		if x.Measured {
			continue
		}
		if testing.Short() && x.ID != "E9" && x.ID != "E10" && x.ID != "E11" {
			continue
		}
		xs = append(xs, x)
	}
	defer obs.SetEnabled(true)
	render := func(telemetry bool, workers int) string {
		obs.SetEnabled(telemetry)
		eng := NewEngine(Options{Seed: DefaultSeed, Short: true, Parallelism: workers})
		var sb strings.Builder
		for _, tbl := range eng.RunAll(xs) {
			sb.WriteString(tbl.Render())
		}
		return sb.String()
	}
	base := render(true, 1)
	for _, c := range []struct {
		telemetry bool
		workers   int
	}{{true, 8}, {false, 1}, {false, 8}} {
		if got := render(c.telemetry, c.workers); got != base {
			t.Errorf("telemetry=%v workers=%d: rendered tables differ from telemetry=true workers=1",
				c.telemetry, c.workers)
		}
	}
}
