package native_test

import (
	"testing"
	"time"

	"wfadvice/internal/core"
	"wfadvice/internal/native"
)

// TestStressObservability runs a short traced consensus burst and checks
// the whole observability surface end to end: the report carries counter
// deltas and the latency histogram, the percentiles include a coherent
// p999, and the tracer captured the decision lifecycle. Counters are
// process-global and the tests of this package run one at a time, so the
// deltas are this burst's own.
func TestStressObservability(t *testing.T) {
	s := scenario(t, core.ScenarioParams{Task: "consensus", N: 4, Stabilize: 10, Advice: "event"})
	tracer := native.NewTracer(1 << 14)
	dur := 200 * time.Millisecond
	if testing.Short() {
		dur = 60 * time.Millisecond
	}
	rep, err := native.Stress(s.Name, s.Task, func(seed int64) (native.Config, error) {
		return s.NativeConfig(seed, tick), nil
	}, native.StressOptions{
		Duration: dur, RunBudget: 5 * time.Second, Workers: 2, Seed: 1,
		Tracer: tracer,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed() {
		t.Fatalf("stress failed:\n%s", rep.Render())
	}

	// Counter deltas: every run started is counted (and with it the tick-0
	// publication each run starts with), every decision in the report has
	// bumped cDecide, and a consensus run queries advice continuously.
	if rep.Counters == nil {
		t.Fatal("report carries no counter deltas")
	}
	if got := rep.Counters["run_start"]; got != int64(rep.Runs) {
		t.Errorf("run_start delta %d, want %d runs", got, rep.Runs)
	}
	if got := rep.Counters["decide"]; got < int64(rep.Decisions) {
		t.Errorf("decide delta %d < %d decisions", got, rep.Decisions)
	}
	if rep.Counters["advice_query"] == 0 {
		t.Error("no advice queries counted during a consensus stress run")
	}

	// Histogram and percentiles.
	if rep.Histogram == nil || rep.Histogram.Count != int64(rep.Latency.Samples) {
		t.Fatalf("histogram missing or inconsistent: %+v vs %d samples", rep.Histogram, rep.Latency.Samples)
	}
	l := rep.Latency
	if !(l.P50 <= l.P90 && l.P90 <= l.P99 && l.P99 <= l.P999 && l.P999 <= l.Max) {
		t.Errorf("percentiles not monotone: %+v", l)
	}

	// Trace: the ring must hold complete lifecycles, and the accounting
	// identity must hold when quiescent.
	d := tracer.Dump()
	if len(d.Events) == 0 {
		t.Fatal("tracer captured nothing")
	}
	kinds := map[string]int{}
	for _, ev := range d.Events {
		kinds[ev.Kind]++
	}
	for _, want := range []string{"run_start", "decide", "advice"} {
		if kinds[want] == 0 {
			t.Errorf("trace has no %s events (kinds: %v)", want, kinds)
		}
	}
	var drops int64
	for _, n := range d.Drops {
		drops += n
	}
	if d.Emitted != uint64(int64(len(d.Events))+drops) {
		t.Errorf("trace accounting broken: emitted %d != %d retained + %d dropped",
			d.Emitted, len(d.Events), drops)
	}
}
