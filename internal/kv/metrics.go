package kv

import "wfadvice/internal/obs"

// kv counter taxonomy, following internal/native/metrics.go: process-wide
// striped counters, handles minted at body construction, one atomic add
// per bump on the hot path. Deltas per run come from Snapshot subtraction.

// Counter taxonomy. The constants index counterNames; both orders must
// stay in sync (pinned by TestKVCounterNames).
const (
	// Client operations completed, by kind.
	cOpGet obs.CounterID = iota
	cOpPut
	// Log proposals: batches submitted to a slot, slots decided with our
	// batch, slots decided with a competitor's batch (our batch retries at
	// the next slot), and total requests carried in committed batches.
	cProposal
	cBatchCommit
	cBatchPreempt
	cBatchReqs
	// Apply path: log entries applied, requests skipped as duplicates
	// ((client,seq) already applied — the exactly-once guarantee working),
	// replies re-written for a stale pending request (retransmit after a
	// leadership change).
	cApply
	cDedupHit
	cRetransmit
	// Lease reads: pure Gets served from leader state without a log round,
	// and redirects (frontier moved under the lease check — fall back to
	// the log path).
	cLeaseRead
	cRedirect
	// Sessions completed (clerk decided its history).
	cSession
	// Degradation under adversarial advice: leadership lost mid-flight (the
	// advised leader changed away from a replica with a proposal riding the
	// log — it abandons the batch), clerk retry backoffs (reply still absent
	// after the free-poll budget), and clerk per-op deadlines expired (the
	// op is recorded TimedOut and the clerk moves on).
	cAdviceFlap
	cRetry
	cDeadlineExpired

	numCounters
)

// counterNames are the exported metric names, in CounterID order: the keys
// of the kv section of /metrics (as wfadvice_kv_<name>_total) and of
// stress-report counter maps.
var counterNames = []string{
	"kv_op_get",
	"kv_op_put",
	"kv_proposal",
	"kv_batch_commit",
	"kv_batch_preempt",
	"kv_batch_reqs",
	"kv_apply",
	"kv_dedup_hit",
	"kv_retransmit",
	"kv_lease_read",
	"kv_redirect",
	"kv_session",
	"kv_advice_flap",
	"kv_retry",
	"kv_deadline_expired",
}

// metrics is the process-wide kv counter set.
var metrics = obs.NewCounters(counterNames)

// Metrics returns the process-wide kv counter set (for the debug
// endpoint's MoreCounters and report deltas).
func Metrics() *obs.Counters { return metrics }

// MetricsSnapshot sums the counter stripes into a point-in-time snapshot.
func MetricsSnapshot() obs.Snapshot { return metrics.Snapshot() }

// Per-op-kind latency histograms (ns), observed by the clerk at completion:
// get (all reads, lease-served or logged), put, and the lease-served subset
// of gets. Process-wide like the counters; the stress driver snapshots
// around a run, the debug endpoint serves them live.
var (
	latGet   = obs.NewHistogram()
	latPut   = obs.NewHistogram()
	latLease = obs.NewHistogram()
)

// Latencies returns the kv latency histograms keyed by series name.
func Latencies() map[string]*obs.Histogram {
	return map[string]*obs.Histogram{
		"kv_get_latency_ns":   latGet,
		"kv_put_latency_ns":   latPut,
		"kv_lease_latency_ns": latLease,
	}
}
