package native

import "wfadvice/internal/obs"

// This file is the native backend's counter taxonomy. Counters are striped
// padded atomic cells: every Env, fdService and notifier mints a
// pre-resolved obs.Handle at construction (a register cell counts on its
// caller's), and a bump on the hot path is one atomic add on a stripe the
// goroutine effectively owns — the bound register path stays
// allocation-free with every counter recording (TestReadWriteAllocs).
//
// The counters are process-global, not per-Runtime: the stress harness
// runs thousands of instances back to back and the debug endpoint
// (`efd-stress -http`, /metrics) observes the aggregate live; per-run
// deltas come from Snapshot subtraction (StressReport.Counters).

// Counter taxonomy.
const (
	// Register operations through the keyed Ops surface (one shard lookup
	// per key — setup code and one-off collects).
	cRegReadKeyed obs.CounterID = iota
	cRegWriteKeyed
	cRegCollectKeyed
	// Register operations through bound handles (sim.Regs — every hot
	// loop): generic reads/writes, typed unboxed int reads/writes, and
	// batched collects.
	cRegReadBound
	cRegWriteBound
	cRegReadTyped
	cRegWriteTyped
	cRegCollectBound
	// Advice: queries served (one atomic load each) and publications by
	// who performed them — cooperative (a querier found a transition's
	// deadline passed), waker (the background deadline sleeper). The
	// synchronous tick-0 publication of every run is run_start.
	cAdviceQuery
	cAdvicePubCoop
	cAdvicePubWaker
	// Notifier: epoch bumps (state changes published), parks (awaits that
	// actually blocked), and how each park ended — woken by a bump or
	// released by the heartbeat.
	cNotifyBump
	cNotifyPark
	cNotifyWake
	cNotifyTimeout
	// Store: sharded-table lookups (one per key bound, one per keyed op —
	// the only lock on the register path) and the cell's paths off the
	// packed word: boxed stores are all writes of a non-packed value (a
	// typed cell's data word or the general box), generalised counts cells
	// leaving int or typed mode for the general box (once per cell — a hot
	// register that shows up here pays a box per write from then on).
	// Reclamation: registers taken out of the table by Release, and binds
	// that minted from a recycled backing array instead of allocating one.
	cStoreShardLookup
	cCellBoxedStore
	cCellGeneralised
	cRegReleased
	cCellArrayReused
	// Lifecycle: instances started, C-process decisions, S-process crash
	// injections.
	cRunStart
	cDecide
	cCrashInject

	numCounters
)

// Telemetry is the native layer's process-wide telemetry. The names are
// the keys of StressReport.Counters and the /metrics series (as
// wfadvice_<name>_total).
var Telemetry = obs.NewTaxonomy(numCounters, []string{
	cRegReadKeyed:     "reg_read_keyed",
	cRegWriteKeyed:    "reg_write_keyed",
	cRegCollectKeyed:  "reg_collect_keyed",
	cRegReadBound:     "reg_read_bound",
	cRegWriteBound:    "reg_write_bound",
	cRegReadTyped:     "reg_read_typed",
	cRegWriteTyped:    "reg_write_typed",
	cRegCollectBound:  "reg_collect_bound",
	cAdviceQuery:      "advice_query",
	cAdvicePubCoop:    "advice_pub_coop",
	cAdvicePubWaker:   "advice_pub_waker",
	cNotifyBump:       "notify_bump",
	cNotifyPark:       "notify_park",
	cNotifyWake:       "notify_wake",
	cNotifyTimeout:    "notify_timeout",
	cStoreShardLookup: "store_shard_lookup",
	cCellBoxedStore:   "cell_boxed_store",
	cCellGeneralised:  "cell_generalised",
	cRegReleased:      "reg_released",
	cCellArrayReused:  "cell_array_reused",
	cRunStart:         "run_start",
	cDecide:           "decide",
	cCrashInject:      "crash_inject",
})

// Trace event kinds recorded by the native backend (see obs.Tracer). The
// constants key traceKindNames; a decision lifecycle reads as run_start
// → advice publications interleaved with parks/wakes → decide (or crash)
// → run_end.
const (
	// TraceRunStart marks Runtime.Run entry; arg = number of process
	// goroutines spawned.
	TraceRunStart obs.EventKind = iota
	// TraceRunEnd marks Runtime.Run exit; arg = Reason.
	TraceRunEnd
	// TraceDecide is a C-process decision; arg = latency in ns.
	TraceDecide
	// TraceCrash is an injected S-process kill; arg = the model tick.
	TraceCrash
	// TraceAdvice is an advice publication; arg = the model time
	// published.
	TraceAdvice
	// TracePark is a process parking on the change epoch; arg = the epoch
	// it saw.
	TracePark
	// TraceWake is a park returning; arg = 1 if the epoch moved, 0 if the
	// heartbeat released it.
	TraceWake
)

// traceKindNames are the exported trace kind names, in EventKind order.
var traceKindNames = []string{
	TraceRunStart: "run_start",
	TraceRunEnd:   "run_end",
	TraceDecide:   "decide",
	TraceCrash:    "crash",
	TraceAdvice:   "advice",
	TracePark:     "park",
	TraceWake:     "wake",
}

// NewTracer builds a decision-lifecycle tracer over the native event
// kinds with the given ring capacity (rounded up to a power of two).
func NewTracer(capacity int) *obs.Tracer { return obs.NewTracer(capacity, traceKindNames) }

// procCode encodes a process identity for trace events: C-process i is
// i+1, S-process i is -(i+1), 0 is the runtime/advice service itself.
func procCode(isS bool, index int) int32 {
	if isS {
		return int32(-(index + 1))
	}
	return int32(index + 1)
}
