package main

import (
	"sort"
	"time"
)

// metricDef is one row of the benchmark's metric tables. BENCHMARK.json at
// the root of the repo carries the same rows; the schema test keeps the two
// in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: allowed worsening as a share of the parent's median
}

// endToEnd lists what a user of the system would count and this box can
// repeat: every untraced run reports all four, on every workload. Throughput,
// latency and CPU per op are per-layer diagnostics (wall.*), because their
// run-to-run spread here is wider than any bound worth setting.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.10},
	{"alloc_bytes_per_op", "B", "lower", 0.10},
	{"allocs_per_op", "count", "lower", 0.05},
	{"ok_frac", "fraction", "higher", 0.001},
}

// perLayer lists the diagnostics of single layers (layer = package name).
// Every traced run reports all of them; a metric whose layer the workload
// never enters reads 0.
var perLayer = []metricDef{
	// Untraced segments of the traced run: what a client sees on the wall
	// clock, medians over the segments.
	{Name: "wall.ops_per_s", Unit: "1/s", Better: "higher"},
	{Name: "wall.p50_us", Unit: "us", Better: "lower"},
	{Name: "wall.cpu_us_per_op", Unit: "us", Better: "lower"},
	{Name: "setup.outside_window_ms", Unit: "ms", Better: "lower"},
	// Traced segment: exact call counts, sampled busy time.
	{Name: "native.reg_calls_per_op", Unit: "count", Better: "lower"},
	{Name: "native.reg_busy_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "native.pause_calls_per_op", Unit: "count", Better: "lower"},
	{Name: "native.pause_wait_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "native.keys_bound_per_op", Unit: "count", Better: "lower"},
	{Name: "native.retained_bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "paxos.reg_calls_per_op", Unit: "count", Better: "lower"},
	{Name: "paxos.busy_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "kv.mailbox_calls_per_op", Unit: "count", Better: "lower"},
	{Name: "kv.mailbox_busy_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "kv.clerk_polls_per_op", Unit: "count", Better: "lower"},
	{Name: "kv.service_p50_us", Unit: "us", Better: "lower"},
	{Name: "kv.gen_late_p99_us", Unit: "us", Better: "lower"},
	{Name: "kv.stall_ms_per_s", Unit: "ms/s", Better: "lower"},
	{Name: "kv.check_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "core.reg_calls_per_op", Unit: "count", Better: "lower"},
	{Name: "trace.overhead_frac", Unit: "fraction", Better: "lower"},
	{Name: "trace.cut_us", Unit: "us", Better: "lower"},
	{Name: "trace.cut_share", Unit: "fraction", Better: "lower"},
	// Untraced segments of the traced run: counter ratios and tails.
	{Name: "native.reg_writes_per_op", Unit: "count", Better: "lower"},
	{Name: "kv.ops_per_batch", Unit: "count", Better: "higher"},
	{Name: "kv.lease_read_frac", Unit: "fraction", Better: "higher"},
	{Name: "kv.preempt_per_kop", Unit: "count", Better: "lower"},
	{Name: "kv.retry_per_kop", Unit: "count", Better: "lower"},
	{Name: "kv.timeouts", Unit: "count", Better: "lower"},
	{Name: "kv.p99_us", Unit: "us", Better: "lower"},
	{Name: "kv.p999_us", Unit: "us", Better: "lower"},
	{Name: "kv.max_ms", Unit: "ms", Better: "lower"},
	{Name: "go.gc_cycles_per_s", Unit: "1/s", Better: "lower"},
	{Name: "go.gc_pause_ms_per_s", Unit: "ms/s", Better: "lower"},
	{Name: "go.gc_cpu_frac", Unit: "fraction", Better: "lower"},
	// Stack phase: one public function driven alone.
	{Name: "native.reg_op_ns", Unit: "ns", Better: "lower"},
	{Name: "native.collect4_ns", Unit: "ns", Better: "lower"},
	{Name: "native.bind4_ns", Unit: "ns", Better: "lower"},
	{Name: "native.run_lifecycle_us", Unit: "us", Better: "lower"},
	{Name: "native.wake_us", Unit: "us", Better: "lower"},
	{Name: "paxos.instance_ns", Unit: "ns", Better: "lower"},
	{Name: "paxos.instance_reg_calls", Unit: "count", Better: "lower"},
	{Name: "paxos.log_slot_ns", Unit: "ns", Better: "lower"},
	{Name: "core.scenario_build_us", Unit: "us", Better: "lower"},
	{Name: "fdet.query_ns", Unit: "ns", Better: "lower"},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report attaches the declared units to values; a name missing from values
// reads 0, which is how a layer the workload never enters shows.
func report(defs []metricDef, values map[string]float64) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		out[d.Name] = metric{Value: values[d.Name], Unit: d.Unit}
	}
	return out
}

// median returns the middle value (mean of the two middle ones for an even
// count) and 0 for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// quantile returns the q-quantile of sorted durations by nearest rank.
func quantile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[int(q*float64(len(sorted)-1)+0.5)]
}

// ratio is a/b, and 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func micros(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
