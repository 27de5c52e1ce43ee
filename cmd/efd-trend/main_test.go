package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"wfadvice/internal/native"
)

// rep builds a healthy synthetic report; mutate the result for failure cases.
func rep(scenario string, ops float64, p50, p99 time.Duration) *native.StressReport {
	return &native.StressReport{
		Scenario:  scenario,
		Runs:      100,
		OpsPerSec: ops,
		Latency: native.LatencyStats{
			P50:     p50,
			P99:     p99,
			P999:    p99,
			Max:     p99,
			Samples: 100,
		},
	}
}

// ceilings parses flag values through the real flag.Value path.
func ceilings(t *testing.T, vals ...string) ceilingList {
	t.Helper()
	var c ceilingList
	for _, v := range vals {
		if err := c.Set(v); err != nil {
			t.Fatalf("Set(%q): %v", v, err)
		}
	}
	return c
}

// check runs checkReports and returns the failure count and all output lines.
func check(reps []*native.StressReport, opt checkOptions) (int, []string) {
	var lines []string
	n := checkReports(reps, opt, func(format string, a ...any) {
		lines = append(lines, fmt.Sprintf(format, a...))
	})
	return n, lines
}

func TestCeilingSet(t *testing.T) {
	c := ceilings(t, "15ms", "consensus/n=4:250us", "renaming:2ms")
	want := ceilingList{
		{prefix: "", max: 15 * time.Millisecond},
		{prefix: "consensus/n=4", max: 250 * time.Microsecond},
		{prefix: "renaming", max: 2 * time.Millisecond},
	}
	if len(c) != len(want) {
		t.Fatalf("got %d entries, want %d", len(c), len(want))
	}
	for i := range want {
		if c[i] != want[i] {
			t.Errorf("entry %d: got %+v, want %+v", i, c[i], want[i])
		}
	}
}

func TestCeilingSetRejectsBadValues(t *testing.T) {
	for _, bad := range []string{"", "consensus", "consensus:", ":", "15", "consensus:-3ms", "consensus:0s"} {
		var c ceilingList
		if err := c.Set(bad); err == nil {
			t.Errorf("Set(%q) accepted, want error", bad)
		}
	}
}

func TestCeilingMatchLongestPrefixWins(t *testing.T) {
	c := ceilings(t, "100ms", "consensus:10ms", "consensus/n=4:1ms")
	cases := []struct {
		scenario string
		want     time.Duration
	}{
		{"consensus/n=4/omega", time.Millisecond},
		{"consensus/n=16/omega", 10 * time.Millisecond},
		{"renaming/n=4/j=3/k=2", 100 * time.Millisecond},
	}
	for _, tc := range cases {
		got, ok := c.match(tc.scenario)
		if !ok || got != tc.want {
			t.Errorf("match(%q) = %v, %v; want %v, true", tc.scenario, got, ok, tc.want)
		}
	}
	if _, ok := ceilingList(nil).match("consensus/n=4"); ok {
		t.Error("empty list matched")
	}
	scoped := ceilings(t, "consensus:10ms")
	if _, ok := scoped.match("renaming/n=4"); ok {
		t.Error("scoped ceiling matched an unrelated scenario")
	}
}

func TestCheckReportsHealthy(t *testing.T) {
	reps := []*native.StressReport{
		rep("consensus/n=4/omega", 50000, 80*time.Microsecond, 500*time.Microsecond),
		rep("renaming/n=4/j=3/k=2", 9000, time.Millisecond, 8*time.Millisecond),
	}
	opt := checkOptions{
		minOps: 1000,
		maxP50: ceilings(t, "consensus:15ms", "renaming:50ms"),
		maxP99: ceilings(t, "250ms"),
	}
	if n, lines := check(reps, opt); n != 0 {
		t.Fatalf("healthy artifact: %d failures: %v", n, lines)
	}
}

func TestCheckReportsP50Ceiling(t *testing.T) {
	reps := []*native.StressReport{
		rep("consensus/n=4/omega/advice=event", 50000, 20*time.Millisecond, 60*time.Millisecond),
	}
	opt := checkOptions{maxP50: ceilings(t, "consensus/n=4/omega/advice=event:15ms")}
	n, _ := check(reps, opt)
	if n != 1 {
		t.Fatalf("p50 20ms vs ceiling 15ms: got %d failures, want 1", n)
	}
	// Same report passes a looser ceiling for the same scenario.
	opt = checkOptions{maxP50: ceilings(t, "consensus/n=4/omega/advice=event:25ms")}
	if n, lines := check(reps, opt); n != 0 {
		t.Fatalf("p50 20ms vs ceiling 25ms: %d failures: %v", n, lines)
	}
}

func TestCheckReportsP99Ceiling(t *testing.T) {
	reps := []*native.StressReport{
		rep("consensus/n=4/omega", 50000, 80*time.Microsecond, 400*time.Millisecond),
	}
	opt := checkOptions{maxP99: ceilings(t, "250ms")}
	if n, _ := check(reps, opt); n != 1 {
		t.Fatalf("p99 400ms vs ceiling 250ms: got %d failures, want 1", n)
	}
}

func TestCheckReportsP999Ceiling(t *testing.T) {
	r := rep("consensus/n=4/omega", 50000, 80*time.Microsecond, 400*time.Microsecond)
	r.Latency.P999 = 600 * time.Millisecond
	opt := checkOptions{maxP999: ceilings(t, "500ms")}
	if n, _ := check([]*native.StressReport{r}, opt); n != 1 {
		t.Fatalf("p999 600ms vs ceiling 500ms: got %d failures, want 1", n)
	}
	// The p999 ceiling leaves p50/p99 alone and vice versa: the same report
	// passes when only tighter p50/p99 ceilings than its values exist.
	opt = checkOptions{
		maxP50:  ceilings(t, "1ms"),
		maxP99:  ceilings(t, "1ms"),
		maxP999: ceilings(t, "800ms"),
	}
	if n, lines := check([]*native.StressReport{r}, opt); n != 0 {
		t.Fatalf("p999 600ms vs ceiling 800ms: %d failures: %v", n, lines)
	}
}

func TestCheckReportsCeilingScoping(t *testing.T) {
	// The slow scenario has no matching ceiling, so only the fast one is held
	// to its number.
	reps := []*native.StressReport{
		rep("consensus/n=4/omega/advice=event", 50000, 90*time.Microsecond, 600*time.Microsecond),
		rep("renaming/n=4/j=3/k=2", 5000, 25*time.Millisecond, 120*time.Millisecond),
	}
	opt := checkOptions{maxP50: ceilings(t, "consensus:1ms")}
	if n, lines := check(reps, opt); n != 0 {
		t.Fatalf("scoped ceiling hit unrelated scenario: %d failures: %v", n, lines)
	}
}

func TestCheckReportsCeilingNeedsSamples(t *testing.T) {
	r := rep("consensus/n=4/omega", 50000, 0, 0)
	r.Latency = native.LatencyStats{}
	opt := checkOptions{maxP50: ceilings(t, "1ms")}
	if n, _ := check([]*native.StressReport{r}, opt); n != 1 {
		t.Fatalf("ceiling over zero-sample report: got %d failures, want 1", n)
	}
	// Without a ceiling the same report is fine.
	if n, lines := check([]*native.StressReport{r}, checkOptions{}); n != 0 {
		t.Fatalf("zero-sample report with no ceiling: %d failures: %v", n, lines)
	}
}

func TestCheckReportsStructural(t *testing.T) {
	if n, _ := check(nil, checkOptions{}); n != 1 {
		t.Errorf("empty artifact: got %d failures, want 1", n)
	}

	empty := rep("consensus/n=4/omega", 0, 0, 0)
	empty.Runs = 0
	if n, _ := check([]*native.StressReport{empty}, checkOptions{}); n != 1 {
		t.Errorf("zero runs: got %d failures, want 1", n)
	}

	bad := rep("consensus/n=4/omega", 50000, time.Millisecond, time.Millisecond)
	bad.Violations = 2
	if n, _ := check([]*native.StressReport{bad}, checkOptions{}); n != 1 {
		t.Errorf("checker violations: got %d failures, want 1", n)
	}

	dup := []*native.StressReport{
		rep("consensus/n=4/omega", 50000, time.Millisecond, time.Millisecond),
		rep("consensus/n=4/omega", 50000, time.Millisecond, time.Millisecond),
	}
	if n, _ := check(dup, checkOptions{}); n != 1 {
		t.Errorf("duplicate scenario: got %d failures, want 1", n)
	}
}

// TestParseReportsSchemaTolerant pins that artifacts from before and after
// the observability fields (counters, histogram, p999) were added both
// parse: old artifacts stay checkable and new artifacts don't break an old
// checkout's trend job.
func TestParseReportsSchemaTolerant(t *testing.T) {
	old := `{
  "scenario": "consensus/n=4/omega",
  "workers": 2,
  "runs": 10,
  "decisions": 40,
  "ops": 5000,
  "elapsed_ns": 1000000000,
  "ops_per_sec": 5000,
  "violations": 0,
  "undecided": 0,
  "crashes": 0,
  "latency": {"p50": 70000, "p90": 90000, "p99": 200000, "max": 400000, "samples": 40}
}`
	niu := `{
  "scenario": "consensus/n=4/omega/advice=event",
  "runs": 12,
  "ops_per_sec": 6000,
  "latency": {"p50": 70000, "p99": 200000, "p999": 350000, "max": 400000, "samples": 48},
  "counters": {"advice_query": 12345, "decide": 48, "notify_wake": 99},
  "histogram": {"count": 48, "sum": 4000000, "max": 400000,
    "buckets": [{"lo": 65536, "hi": 73727, "n": 48}]}
}`
	path := filepath.Join(t.TempDir(), "BENCH_native.json")
	if err := os.WriteFile(path, []byte(old+"\n"+niu+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	reps, err := parseReports(path)
	if err != nil {
		t.Fatalf("parseReports: %v", err)
	}
	if len(reps) != 2 {
		t.Fatalf("got %d reports, want 2", len(reps))
	}
	if reps[0].Latency.P999 != 0 || reps[0].Counters != nil || reps[0].Histogram != nil {
		t.Errorf("pre-observability report grew fields: %+v", reps[0])
	}
	if reps[1].Latency.P999 != 350*time.Microsecond {
		t.Errorf("p999 = %v, want 350µs", reps[1].Latency.P999)
	}
	if reps[1].Counters["advice_query"] != 12345 {
		t.Errorf("counters = %v, want advice_query 12345", reps[1].Counters)
	}
	if reps[1].Histogram == nil || reps[1].Histogram.Count != 48 {
		t.Errorf("histogram = %+v, want count 48", reps[1].Histogram)
	}
	// Both shapes clear the structural checks together.
	if n, lines := check(reps, checkOptions{}); n != 0 {
		t.Fatalf("mixed-schema artifact: %d failures: %v", n, lines)
	}

	// History lines parse alongside both report shapes: a minimal line
	// (the format floor — ts, scenario, ops) and a full line as
	// appendHistory writes today, plus an unknown field a future run
	// might add.
	histPath := filepath.Join(t.TempDir(), "BENCH_history.jsonl")
	lines := `{"ts":"2026-08-01T00:00:00Z","scenario":"consensus/n=4/omega","ops_per_sec":4800}
{"ts":"2026-08-08T00:00:00Z","scenario":"consensus/n=4/omega","ops_per_sec":5000,"p50_ns":70000,"p99_ns":200000,"p999_ns":350000,"runs":10,"machine":"runner-42"}
`
	if err := os.WriteFile(histPath, []byte(lines), 0o644); err != nil {
		t.Fatal(err)
	}
	hist, err := parseHistory(histPath)
	if err != nil {
		t.Fatalf("parseHistory: %v", err)
	}
	if len(hist) != 2 {
		t.Fatalf("got %d history entries, want 2", len(hist))
	}
	if hist[0].P50NS != 0 || hist[0].Runs != 0 {
		t.Errorf("minimal history line grew fields: %+v", hist[0])
	}
	if hist[1].OpsPerSec != 5000 || hist[1].P999NS != 350000 {
		t.Errorf("full history line = %+v", hist[1])
	}
	// The gate consumes the mixed history together with the mixed artifact.
	if n, out := checkHist(reps, hist, 5, 0.5); n != 0 {
		t.Fatalf("mixed history + mixed artifact: %d failures: %v", n, out)
	}
}

// TestCheckReportsFloorAndBaseline checks the ops/sec floor (the baseline
// comparison it also covered went with the -baseline flag).
func TestCheckReportsFloorAndBaseline(t *testing.T) {
	reps := []*native.StressReport{
		rep("consensus/n=4/omega", 800, time.Millisecond, time.Millisecond),
	}
	if n, _ := check(reps, checkOptions{minOps: 1000}); n != 1 {
		t.Errorf("ops floor: got %d failures, want 1", n)
	}
}

// histOps builds history entries for one scenario from an ops sequence,
// oldest first (file order is chronological).
func histOps(scenario string, ops ...float64) []historyEntry {
	out := make([]historyEntry, len(ops))
	for i, v := range ops {
		out[i] = historyEntry{TS: "2026-08-08T00:00:00Z", Scenario: scenario, OpsPerSec: v}
	}
	return out
}

// checkHist runs checkHistory and returns the failure count and lines.
func checkHist(reps []*native.StressReport, hist []historyEntry, window int, frac float64) (int, []string) {
	var lines []string
	n := checkHistory(reps, hist, window, frac, func(format string, a ...any) {
		lines = append(lines, fmt.Sprintf(format, a...))
	})
	return n, lines
}

func TestHistoryGateInactiveUntilWindowFills(t *testing.T) {
	cur := []*native.StressReport{rep("consensus/n=4/omega", 100, time.Millisecond, time.Millisecond)}
	// 4 history entries + current = 5 points: one short of window+1.
	hist := histOps("consensus/n=4/omega", 10000, 10000, 10000, 10000)
	if n, lines := checkHist(cur, hist, 5, 0.5); n != 0 {
		t.Fatalf("young scenario tripped the gate: %d failures: %v", n, lines)
	}
}

func TestHistoryGateSustainedRegressionFails(t *testing.T) {
	cur := []*native.StressReport{rep("consensus/n=4/omega", 4000, time.Millisecond, time.Millisecond)}
	// Peak 10000, then four runs at 4000; the current 4000 completes a
	// window of five, all below 0.5x of the peak just before it.
	hist := histOps("consensus/n=4/omega", 10000, 10000, 4000, 4000, 4000, 4000)
	n, lines := checkHist(cur, hist, 5, 0.5)
	if n != 1 {
		t.Fatalf("sustained 0.4x regression: got %d failures, want 1: %v", n, lines)
	}
}

func TestHistoryGateSingleRunNeitherTripsNorMasks(t *testing.T) {
	// One slow current run does NOT trip the gate while the window still
	// holds healthy entries...
	cur := []*native.StressReport{rep("consensus/n=4/omega", 100, time.Millisecond, time.Millisecond)}
	hist := histOps("consensus/n=4/omega", 10000, 10000, 9000, 9500, 9800, 9700)
	if n, lines := checkHist(cur, hist, 5, 0.5); n != 0 {
		t.Fatalf("one noisy run tripped the gate: %d failures: %v", n, lines)
	}
	// ...and one healthy run inside an otherwise collapsed window does not
	// mask the regression forever: it passes now, but the healthy entry
	// ages out of the window as slow runs accumulate.
	cur = []*native.StressReport{rep("consensus/n=4/omega", 4000, time.Millisecond, time.Millisecond)}
	hist = histOps("consensus/n=4/omega", 10000, 10000, 4000, 4000, 6000, 4000)
	if n, lines := checkHist(cur, hist, 5, 0.5); n != 0 {
		t.Fatalf("window containing one healthy run tripped: %d failures: %v", n, lines)
	}
}

func TestHistoryGateReferenceIsRecentPeak(t *testing.T) {
	// The all-time peak (20000) sits further back than window entries
	// before the tail; the reference must be the recent 6000, so five runs
	// at 4000 are 0.67x of it and pass at frac 0.5.
	cur := []*native.StressReport{rep("consensus/n=4/omega", 4000, time.Millisecond, time.Millisecond)}
	hist := histOps("consensus/n=4/omega",
		20000, 6000, 6000, 6000, 6000, 6000, 4000, 4000, 4000, 4000)
	if n, lines := checkHist(cur, hist, 5, 0.5); n != 0 {
		t.Fatalf("aged-out peak still referenced: %d failures: %v", n, lines)
	}
}

func TestParseHistoryMalformedLines(t *testing.T) {
	write := func(content string) string {
		t.Helper()
		path := filepath.Join(t.TempDir(), "BENCH_history.jsonl")
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	// Malformed lines sealed by a newline are file damage, not a torn
	// write — the parse must fail so the gate never runs over a history it
	// cannot trust.
	for _, bad := range []string{
		`{"scenario": "consensus", "ops_per_sec": 100` + "\n",          // truncated JSON, interior
		`{"ts": "2026-08-08T00:00:00Z", "ops_per_sec": 100}` + "\n",    // no scenario
		`{"scenario": "consensus", "ops_per_sec": 0}` + "\n",           // non-positive ops
		`{"scenario": "consensus", "ops_per_sec": 100}` + "\nx\n",      // good line then garbage
		"x\n" + `{"scenario": "consensus", "ops_per_sec": 100}` + "\n", // garbage before a good line
	} {
		if _, err := parseHistory(write(bad)); err == nil {
			t.Errorf("parseHistory accepted malformed content %q", bad)
		}
	}
	// A missing file is an empty history, not an error.
	if hist, err := parseHistory(filepath.Join(t.TempDir(), "absent.jsonl")); err != nil || hist != nil {
		t.Errorf("missing file: got %v, %v; want nil, nil", hist, err)
	}
	// Blank lines are tolerated (trailing newlines from shell appends).
	hist, err := parseHistory(write(`{"scenario": "consensus", "ops_per_sec": 100}` + "\n\n"))
	if err != nil || len(hist) != 1 {
		t.Errorf("blank-line file: got %d entries, %v; want 1, nil", len(hist), err)
	}
}

// captureHistoryWarnings redirects the torn-write warning into a slice for
// the duration of the test.
func captureHistoryWarnings(t *testing.T) *[]string {
	t.Helper()
	var warnings []string
	prev := historyWarnf
	historyWarnf = func(format string, a ...any) { warnings = append(warnings, fmt.Sprintf(format, a...)) }
	t.Cleanup(func() { historyWarnf = prev })
	return &warnings
}

func TestParseHistoryTornFinalLine(t *testing.T) {
	write := func(content string) string {
		t.Helper()
		path := filepath.Join(t.TempDir(), "BENCH_history.jsonl")
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	good := `{"scenario": "consensus", "ops_per_sec": 100}` + "\n"
	// A final newline-less line that fails to decode or validate is a torn
	// append: warned about, skipped, everything before it kept.
	for _, torn := range []string{
		`{"scenario": "consensus", "ops_per`,         // cut mid-JSON
		`{"scenario": "consensus", "ops_per_sec": 0`, // cut mid-number
		`{"scenario": "conse`,
	} {
		warnings := captureHistoryWarnings(t)
		hist, err := parseHistory(write(good + good + torn))
		if err != nil {
			t.Fatalf("torn final line %q not tolerated: %v", torn, err)
		}
		if len(hist) != 2 {
			t.Fatalf("torn final line %q: got %d entries, want 2", torn, len(hist))
		}
		if len(*warnings) != 1 || !strings.Contains((*warnings)[0], ":3:") {
			t.Fatalf("torn final line %q: warnings = %q, want one naming line 3", torn, *warnings)
		}
	}
	// A final newline-less line that parses and validates is a complete
	// entry missing only its newline — kept, no warning.
	warnings := captureHistoryWarnings(t)
	hist, err := parseHistory(write(good + `{"scenario": "consensus", "ops_per_sec": 50}`))
	if err != nil || len(hist) != 2 {
		t.Fatalf("valid newline-less final line: got %d entries, %v; want 2, nil", len(hist), err)
	}
	if hist[1].OpsPerSec != 50 {
		t.Fatalf("final entry = %+v", hist[1])
	}
	if len(*warnings) != 0 {
		t.Fatalf("valid final line warned: %q", *warnings)
	}
}

func TestParseHistoryOversizedLine(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_history.jsonl")
	good := `{"scenario": "consensus", "ops_per_sec": 100}` + "\n"
	huge := `{"scenario": "` + strings.Repeat("x", maxHistoryLine) + `", "ops_per_sec": 1}`
	// Interior oversized line: an error naming the line, later lines still
	// counted correctly (the overflow is drained through its newline).
	if err := os.WriteFile(path, []byte(good+huge+"\n"+good), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := parseHistory(path)
	if err == nil || !strings.Contains(err.Error(), ":2:") || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("interior oversized line: err = %v, want one naming line 2", err)
	}
	// Oversized torn final line: tolerated like any torn final write.
	if err := os.WriteFile(path, []byte(good+huge), 0o644); err != nil {
		t.Fatal(err)
	}
	warnings := captureHistoryWarnings(t)
	hist, err := parseHistory(path)
	if err != nil || len(hist) != 1 {
		t.Fatalf("oversized torn final line: got %d entries, %v; want 1, nil", len(hist), err)
	}
	if len(*warnings) != 1 {
		t.Fatalf("oversized torn final line: warnings = %q", *warnings)
	}
}

func TestAppendHistoryRepairsTornTail(t *testing.T) {
	good := `{"scenario": "consensus/n=4/omega", "ops_per_sec": 100}` + "\n"
	reps := []*native.StressReport{rep("consensus/n=4/omega", 4000, time.Millisecond, time.Millisecond)}
	// An invalid torn fragment is truncated away before the append, so the
	// next parse sees only whole valid lines and no warning.
	path := filepath.Join(t.TempDir(), "BENCH_history.jsonl")
	if err := os.WriteFile(path, []byte(good+`{"scenario": "consensus/n=4/om`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := appendHistory(path, reps); err != nil {
		t.Fatal(err)
	}
	warnings := captureHistoryWarnings(t)
	hist, err := parseHistory(path)
	if err != nil || len(hist) != 2 {
		t.Fatalf("after append over torn tail: got %d entries, %v; want 2, nil", len(hist), err)
	}
	if hist[0].OpsPerSec != 100 || hist[1].OpsPerSec != 4000 {
		t.Fatalf("entries = %+v", hist)
	}
	if len(*warnings) != 0 {
		t.Fatalf("repaired file still warns: %q", *warnings)
	}
	// A VALID newline-less tail is an entry, not a torn write: it gets its
	// newline sealed in, never truncated.
	if err := os.WriteFile(path, []byte(good+`{"scenario": "consensus/n=4/omega", "ops_per_sec": 200}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := appendHistory(path, reps); err != nil {
		t.Fatal(err)
	}
	hist, err = parseHistory(path)
	if err != nil || len(hist) != 3 {
		t.Fatalf("after append over valid tail: got %d entries, %v; want 3, nil", len(hist), err)
	}
	if hist[1].OpsPerSec != 200 {
		t.Fatalf("sealed entry = %+v", hist[1])
	}
}

func TestAppendHistoryRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_history.jsonl")
	reps := []*native.StressReport{
		rep("consensus/n=4/omega", 50000, 80*time.Microsecond, 500*time.Microsecond),
		rep("renaming/n=4/j=3/k=2", 9000, time.Millisecond, 8*time.Millisecond),
	}
	if err := appendHistory(path, reps); err != nil {
		t.Fatal(err)
	}
	if err := appendHistory(path, reps); err != nil { // appends, not truncates
		t.Fatal(err)
	}
	hist, err := parseHistory(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(hist) != 4 {
		t.Fatalf("got %d entries after two appends, want 4", len(hist))
	}
	e := hist[0]
	if e.Scenario != "consensus/n=4/omega" || e.OpsPerSec != 50000 || e.Runs != 100 {
		t.Errorf("entry 0 = %+v", e)
	}
	if e.P50NS != (80*time.Microsecond).Nanoseconds() || e.P99NS != (500*time.Microsecond).Nanoseconds() {
		t.Errorf("entry 0 latencies = p50:%d p99:%d", e.P50NS, e.P99NS)
	}
	if e.TS == "" {
		t.Error("entry 0 has no timestamp")
	}
}
