package exp

import "wfadvice/internal/obs"

// This file is the experiment engine's live telemetry: counters for cells
// completed / failed / timed out, gauges for planned work and active
// workers, and a per-cell wall-time histogram — the signals behind
// `efd-bench -http` and the -progress ETA heartbeat. Everything here sits
// strictly OUTSIDE Table: outcomes still merge in cell-generation order,
// so rendered tables are byte-identical at any parallelism and with
// telemetry on or stubbed (pinned by TestEngineTelemetryDeterminism). Each
// worker observes cell latencies into a private histogram with zero
// contention and folds it into the shared one via Histogram.Merge when it
// drains.

// Engine counter taxonomy.
const (
	// cExpCell counts completed trial cells (the ETA denominator's done
	// side); cExpCellFail counts cells that contributed claim-violation
	// rows; cExpCellTimeout counts cells cut off by Options.Timeout.
	cExpCell obs.CounterID = iota
	cExpCellFail
	cExpCellTimeout
	// cExpExperiment counts completed Engine.Run invocations.
	cExpExperiment

	numExpCounters
)

// Telemetry is the engine layer's process-wide telemetry (counters are
// served as wfadvice_<name>_total by `efd-bench -http`).
var Telemetry = obs.NewTaxonomy(numExpCounters, []string{
	cExpCell:        "exp_cell",
	cExpCellFail:    "exp_cell_fail",
	cExpCellTimeout: "exp_cell_timeout",
	cExpExperiment:  "exp_experiment",
})

// Live gauges.
var (
	// gCellsTotal accumulates the cells planned by every Engine.Run so
	// far; together with the exp_cell counter it is the live progress
	// fraction.
	gCellsTotal = Telemetry.Gauge("exp_cells_total")
	// gWorkersActive is the number of pool workers currently draining
	// cells (the utilization signal: compare against Options.Parallelism).
	gWorkersActive = Telemetry.Gauge("exp_workers_active")
)

// cellLatency is the cross-worker per-cell wall-time histogram
// (nanoseconds).
var cellLatency = Telemetry.Histogram("exp_cell_latency_ns")

// PlanCells counts the trial cells the given experiments would generate
// under opt — the ETA denominator a driver computes up front, before any
// Run has published its planned count.
func PlanCells(xs []Experiment, opt Options) int {
	n := 0
	for _, x := range xs {
		n += len(x.Cells(opt))
	}
	return n
}
