package explore

import "wfadvice/internal/obs"

// This file is the explorer's live telemetry: counters, point-in-time
// gauges and a node-depth histogram that make a long exhaustive sweep
// observable — nodes replayed/sec, dedup-hit and sleep-prune rates, the
// frontier depth the walk is at right now, how the explored nodes
// distribute over depth, and ddmin shrink progress. Everything here sits
// strictly OUTSIDE Report: the deterministic Stats that reports are built
// from are still counted walk-locally and merged in item-generation order,
// so Report.Render is byte-identical at any worker count and with
// telemetry on or stubbed (pinned by TestExploreTelemetryDeterminism).
// Handles are minted per walk at construction; a telemetry event on the
// probe loop is a predictable branch plus a few atomic operations and
// never allocates (TestExploreTelemetryAllocs).

// Explorer counter taxonomy.
const (
	// cXNode counts nodes replayed — one fresh-runtime prefix replay each
	// (the nodes/sec numerator; multiply out with sim_step for states/sec).
	cXNode obs.CounterID = iota
	cXTerminal
	cXDedupHit
	cXSleepPrune
	cXViolation
	// cXSweep counts completed deepening sweeps; cXItem counts completed
	// phase-2 work items (the sub-tree units the pool consumes).
	cXSweep
	cXItem
	// Shrink progress: ddmin candidate runs evaluated, and candidates that
	// actually reduced the schedule.
	cXShrinkRun
	cXShrinkReduce

	numExploreCounters
)

// Telemetry is the explorer layer's process-wide telemetry (counters are
// served as wfadvice_<name>_total by `efd-explore -http`).
var Telemetry = obs.NewTaxonomy(numExploreCounters, []string{
	cXNode:         "explore_node",
	cXTerminal:     "explore_terminal",
	cXDedupHit:     "explore_dedup_hit",
	cXSleepPrune:   "explore_sleep_prune",
	cXViolation:    "explore_violation",
	cXSweep:        "explore_sweep",
	cXItem:         "explore_item",
	cXShrinkRun:    "explore_shrink_run",
	cXShrinkReduce: "explore_shrink_reduce",
})

// Live gauges. Multi-worker writes are last-write-wins — the gauges are
// "where is the search now" signals, not accounting (the counters are).
var (
	// gFrontierDepth is the prefix length of the most recently probed
	// node; gFrontierMax is the sweep-lifetime high-water mark.
	gFrontierDepth = Telemetry.Gauge("explore_frontier_depth")
	gFrontierMax   = Telemetry.Gauge("explore_frontier_depth_max")
	// gSweepDepth is the horizon of the sweep in progress.
	gSweepDepth = Telemetry.Gauge("explore_sweep_depth")
	// gItemsTotal/gItemsDone are the current sweep's phase-2 work-item
	// progress (the ETA numerator for a long exhaustive sweep).
	gItemsTotal = Telemetry.Gauge("explore_items_total")
	gItemsDone  = Telemetry.Gauge("explore_items_done")
	// gShrinkLen is the current candidate schedule length during a Shrink.
	gShrinkLen = Telemetry.Gauge("explore_shrink_len")
)

// nodeDepths is the depth histogram: one observation per replayed node at
// its prefix length. Cumulative across sweeps; windowed consumers (the
// -progress heartbeat) difference snapshots.
var nodeDepths = Telemetry.Histogram("explore_node_depth")

// walkMetrics is the telemetry surface one walk records through: a
// pre-resolved counter handle plus the shared gauges and histogram. The
// zero value (zero Handle) is the stubbed mode — every method becomes one
// predictable branch, no atomics, no shared-state touches.
type walkMetrics struct {
	h obs.Handle
}

// newWalkMetrics mints the telemetry surface for one walk (the stubbed
// zero surface while telemetry is off).
func newWalkMetrics() walkMetrics { return walkMetrics{h: Telemetry.Handle()} }

// node records one replayed node at the given prefix depth: the node
// counter, the live frontier gauges, and the depth histogram.
func (m walkMetrics) node(depth int) {
	if !m.h.Enabled() {
		return
	}
	m.h.Inc(cXNode)
	d := int64(depth)
	gFrontierDepth.Set(d)
	gFrontierMax.SetMax(d)
	nodeDepths.Observe(d)
}

// inc bumps one explorer counter (terminal, dedup, sleep-prune, ...).
func (m walkMetrics) inc(id obs.CounterID) { m.h.Inc(id) }

// sweepStart publishes a new sweep's horizon and resets item progress.
func (m walkMetrics) sweepStart(depth int) {
	if !m.h.Enabled() {
		return
	}
	gSweepDepth.Set(int64(depth))
	gItemsTotal.Set(0)
	gItemsDone.Set(0)
}

// itemsPlanned publishes the sweep's phase-2 work-item count.
func (m walkMetrics) itemsPlanned(n int) {
	if !m.h.Enabled() {
		return
	}
	gItemsTotal.Set(int64(n))
}

// itemDone counts one drained work item.
func (m walkMetrics) itemDone() {
	if !m.h.Enabled() {
		return
	}
	m.h.Inc(cXItem)
	gItemsDone.Add(1)
}

// sweepDone counts one completed deepening sweep.
func (m walkMetrics) sweepDone() { m.h.Inc(cXSweep) }

// shrinkLen publishes the current candidate schedule length of a Shrink.
func (m walkMetrics) shrinkLen(n int) {
	if !m.h.Enabled() {
		return
	}
	gShrinkLen.Set(int64(n))
}

// shrinkReduced counts one successful ddmin reduction and publishes the
// new candidate length.
func (m walkMetrics) shrinkReduced(n int) {
	if !m.h.Enabled() {
		return
	}
	m.h.Inc(cXShrinkReduce)
	gShrinkLen.Set(int64(n))
}
