package native

import (
	"testing"
	"time"

	"wfadvice/internal/obs"
)

// TestSummarize pins the histogram → LatencyStats derivation, including the
// p50 ≤ p99 ≤ p999 ordering the CI latency ceilings rely on.
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

// TestEnableMetrics pins the gating contract on the native layer: handles
// minted while the one switch is off discard, and re-enabling restores
// recording for runtimes built afterwards (whole stubbed runs: the root
// package's TestStressReportCounterKeys).
func TestEnableMetrics(t *testing.T) {
	obs.SetEnabled(false)
	defer obs.SetEnabled(true)
	if h := Telemetry.Handle(); h.Enabled() {
		t.Fatal("handle minted while disabled records")
	}
	obs.SetEnabled(true)
	if h := Telemetry.Handle(); !h.Enabled() {
		t.Fatal("handle minted while enabled discards")
	}
}
