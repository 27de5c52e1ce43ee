package kv

import "wfadvice/internal/obs"

// kv counter taxonomy, following internal/native/metrics.go: process-wide
// striped counters, handles minted at body construction, one atomic add
// per bump on the hot path. Deltas per run come from Snapshot subtraction.

// Counter taxonomy.
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

// Telemetry is the kv layer's process-wide telemetry. The counter names
// are the keys of the kv section of /metrics (as wfadvice_kv_<name>_total)
// and of stress-report counter maps.
var Telemetry = obs.NewTaxonomy(numCounters, []string{
	cOpGet:           "kv_op_get",
	cOpPut:           "kv_op_put",
	cProposal:        "kv_proposal",
	cBatchCommit:     "kv_batch_commit",
	cBatchPreempt:    "kv_batch_preempt",
	cBatchReqs:       "kv_batch_reqs",
	cApply:           "kv_apply",
	cDedupHit:        "kv_dedup_hit",
	cRetransmit:      "kv_retransmit",
	cLeaseRead:       "kv_lease_read",
	cRedirect:        "kv_redirect",
	cSession:         "kv_session",
	cAdviceFlap:      "kv_advice_flap",
	cRetry:           "kv_retry",
	cDeadlineExpired: "kv_deadline_expired",
})

// Per-op-kind latency histograms (ns), observed by the clerk at completion:
// get (all reads, lease-served or logged), put, and the lease-served subset
// of gets. Process-wide like the counters; the stress driver snapshots
// around a run, the debug endpoint serves them live.
var (
	latGet   = Telemetry.Histogram("kv_get_latency_ns")
	latPut   = Telemetry.Histogram("kv_put_latency_ns")
	latLease = Telemetry.Histogram("kv_lease_latency_ns")
)
