package sim

import "wfadvice/internal/obs"

// This file is the sim backend's op-count telemetry: runs driven and steps
// executed by kind. The counters exist for the layers *above* the runtime —
// the explorer's nodes/sec and states/sec signals, the experiment engine's
// live progress — and are strictly outside sim.Result: a Result, a trace,
// a schedule and every rendered report are byte-identical with telemetry
// on or stubbed (obs.SetEnabled). Each Runtime mints one pre-resolved
// handle at construction, so the per-step cost is one predictable branch
// plus two atomic adds on a stripe the driving goroutine effectively owns,
// and a stubbed run has zero live cells.

// Sim counter taxonomy.
const (
	// cSimRun counts Runtime.Run invocations — one per explorer node
	// probe, shrink candidate, or experiment trial run.
	cSimRun obs.CounterID = iota
	// cSimStep counts scheduled steps executed (the aggregate of the four
	// kind counters below — the explorer's states/sec numerator).
	cSimStep
	cSimRead
	cSimWrite
	cSimQuery
	cSimDecide

	numSimCounters
)

// Telemetry is the sim layer's process-wide telemetry (mounted by the
// efd-explore and efd-bench debug endpoints next to the layer's own;
// counters are served as wfadvice_<name>_total).
var Telemetry = obs.NewTaxonomy(numSimCounters, []string{
	cSimRun:    "sim_run",
	cSimStep:   "sim_step",
	cSimRead:   "sim_read",
	cSimWrite:  "sim_write",
	cSimQuery:  "sim_query",
	cSimDecide: "sim_decide",
})

// kindCounter maps a step kind to its counter.
func kindCounter(kind OpKind) obs.CounterID {
	switch kind {
	case OpRead:
		return cSimRead
	case OpWrite:
		return cSimWrite
	case OpQueryFD:
		return cSimQuery
	default:
		return cSimDecide
	}
}
