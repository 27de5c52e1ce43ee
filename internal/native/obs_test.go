package native

import (
	"testing"
	"time"

	"wfadvice/internal/obs"
)

// TestCounterNames pins the CounterID constants to counterNames: an
// appended constant without its name (or vice versa) silently shifts every
// later counter's exported series, so the sync is enforced here.
func TestCounterNames(t *testing.T) {
	if len(counterNames) != int(numCounters) {
		t.Fatalf("%d counter names for %d counters", len(counterNames), numCounters)
	}
	// Spot-pin the anchors of each taxonomy group; a reordering that keeps
	// the lengths equal still trips these.
	for _, pin := range []struct {
		id   obs.CounterID
		name string
	}{
		{cRegReadKeyed, "reg_read_keyed"},
		{cRegReadBound, "reg_read_bound"},
		{cAdviceQuery, "advice_query"},
		{cNotifyBump, "notify_bump"},
		{cStoreShardLookup, "store_shard_lookup"},
		{cCellGeneralised, "cell_generalised"},
		{cCellMemoMiss, "cell_memo_miss"},
		{cRunStart, "run_start"},
		{cCrashInject, "crash_inject"},
	} {
		if counterNames[pin.id] != pin.name {
			t.Errorf("counterNames[%d] = %q, want %q", pin.id, counterNames[pin.id], pin.name)
		}
	}
	if len(traceKindNames) != int(TraceWake)+1 {
		t.Fatalf("%d trace kind names for %d kinds", len(traceKindNames), TraceWake+1)
	}
}

// TestSummarize pins the histogram → LatencyStats derivation, including the
// p999 ordering invariant the trend gate relies on.
func TestSummarize(t *testing.T) {
	if st := summarize(obs.NewHistogram().Snapshot()); st.Samples != 0 || st.Max != 0 {
		t.Fatalf("empty histogram summarized to %+v", st)
	}
	h := obs.NewHistogram()
	for i := 1; i <= 1000; i++ {
		h.Observe(int64(i) * int64(time.Microsecond))
	}
	st := summarize(h.Snapshot())
	if st.Samples != 1000 {
		t.Fatalf("samples = %d, want 1000", st.Samples)
	}
	if !(st.P50 <= st.P90 && st.P90 <= st.P99 && st.P99 <= st.P999 && st.P999 <= st.Max) {
		t.Fatalf("percentiles not monotone: %+v", st)
	}
	if st.Max != 1000*time.Microsecond {
		t.Fatalf("max = %v, want 1ms", st.Max)
	}
	// p50 should land within the bucket resolution of the true median.
	if st.P50 < 400*time.Microsecond || st.P50 > 600*time.Microsecond {
		t.Fatalf("p50 = %v, want ~500µs", st.P50)
	}
}

// TestEnableMetrics pins the gating contract: handles minted while metrics
// are disabled discard, and re-enabling restores recording for runtimes
// built afterwards.
func TestEnableMetrics(t *testing.T) {
	EnableMetrics(false)
	defer EnableMetrics(true)
	if h := newMetricsHandle(); h.Enabled() {
		t.Fatal("handle minted while disabled records")
	}
	EnableMetrics(true)
	if h := newMetricsHandle(); !h.Enabled() {
		t.Fatal("handle minted while enabled discards")
	}
}
