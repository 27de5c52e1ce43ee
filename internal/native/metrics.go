package native

import (
	"sync/atomic"

	"wfadvice/internal/obs"
)

// This file is the native backend's counter taxonomy and its process-wide
// metrics core (internal/obs wired in). Counters are striped padded
// atomic cells: every Env, fdService and notifier mints a pre-resolved
// obs.Handle at construction (a register cell counts on its caller's), and
// a bump on the hot path is one predictable branch plus one atomic add on a
// stripe the goroutine effectively owns — the zero-allocation guarantee of
// the bound register path (TestReadWriteAllocs) is unchanged with metrics
// enabled.
//
// The counters are process-global, not per-Runtime: the stress harness
// runs thousands of instances back to back and the debug endpoint
// (`efd-stress -http`, /metrics) observes the aggregate live; per-run
// deltas come from Snapshot subtraction (StressReport.Counters).

// Counter taxonomy. The constants index counterNames; both orders must
// stay in sync (pinned by TestCounterNames).
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
	// register that shows up here pays a box per write from then on), memo
	// misses are generic loads of a packed int that had to re-box.
	cStoreShardLookup
	cCellBoxedStore
	cCellGeneralised
	cCellMemoMiss
	// Lifecycle: instances started, C-process decisions, S-process crash
	// injections.
	cRunStart
	cDecide
	cCrashInject

	numCounters
)

// counterNames are the exported metric names, in CounterID order. These
// are the keys of StressReport.Counters and the /metrics series (as
// wfadvice_<name>_total).
var counterNames = []string{
	"reg_read_keyed",
	"reg_write_keyed",
	"reg_collect_keyed",
	"reg_read_bound",
	"reg_write_bound",
	"reg_read_typed",
	"reg_write_typed",
	"reg_collect_bound",
	"advice_query",
	"advice_pub_coop",
	"advice_pub_waker",
	"notify_bump",
	"notify_park",
	"notify_wake",
	"notify_timeout",
	"store_shard_lookup",
	"cell_boxed_store",
	"cell_generalised",
	"cell_memo_miss",
	"run_start",
	"decide",
	"crash_inject",
}

// metrics is the process-wide counter set.
var metrics = obs.NewCounters(counterNames)

// metricsEnabled gates handle minting: construction-time, not per-bump,
// so a disabled run has literally zero live counter cells on its hot
// paths (the stubbed mode BenchmarkNativeRegisterOps compares against).
var metricsEnabled atomic.Bool

func init() { metricsEnabled.Store(true) }

// newMetricsHandle mints a recording handle, or a discarding zero handle
// when metrics are disabled.
func newMetricsHandle() obs.Handle {
	if !metricsEnabled.Load() {
		return obs.Handle{}
	}
	return metrics.Handle()
}

// EnableMetrics turns counter recording on or off for runtimes built
// AFTER the call (handles are resolved at construction). It exists for
// the instrumented-vs-stubbed overhead measurement; production tooling
// leaves metrics on.
func EnableMetrics(on bool) { metricsEnabled.Store(on) }

// Metrics returns the process-wide native counter set (the debug
// endpoint's source).
func Metrics() *obs.Counters { return metrics }

// MetricsSnapshot sums the counter stripes into a point-in-time snapshot.
func MetricsSnapshot() obs.Snapshot { return metrics.Snapshot() }

// Trace event kinds recorded by the native backend (see obs.Tracer). The
// constants index traceKindNames; a decision lifecycle reads as run_start
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
	"run_start",
	"run_end",
	"decide",
	"crash",
	"advice",
	"park",
	"wake",
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
