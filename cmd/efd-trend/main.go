// Command efd-trend checks a native stress trajectory: it parses a
// BENCH_native.json artifact — a concatenation of per-scenario
// native.StressReport JSON documents, as produced by the CI bench-smoke
// job — and fails on structural problems, large ops/sec regressions, or
// decision-latency ceilings being exceeded.
//
// Three modes, combinable:
//
//   - Floor mode (-min-ops): every report must show at least the given
//     ops/sec. CI uses a floor far below any healthy runner's numbers, so
//     only a catastrophic regression (an accidentally serialized hot path,
//     a spin collapse) trips it while machine-to-machine variance does not.
//   - Ceiling mode (-max-p50 / -max-p99 / -max-p999): decision-latency
//     percentiles must stay below the given ceilings. Each flag repeats; a
//     value is either a bare duration (applies to every report) or
//     "scenarioPrefix:duration" (applies to scenarios with that name
//     prefix; the longest matching prefix wins). This is the latency
//     analogue of -min-ops: ceilings sit far above a healthy run's
//     percentiles so that only a regression class — event-driven advice
//     collapsing back to tick-sampling stalls, a poll loop losing its
//     wakeups, a tail blowing out behind a starved waker — trips them.
//   - History mode (-history): reports are gated against BENCH_history.jsonl,
//     an append-only log of per-scenario summary lines carried across CI
//     runs. A scenario fails only when the last -history-window runs
//     (current artifact included) ALL fall below -history-frac of the best
//     run just before that window — a sustained regression; a single noisy
//     run in either direction neither trips nor masks the gate. With
//     -history-append, a fully passing run appends its own summary lines,
//     growing the log for the next run. A malformed history line is an
//     input error (exit 2), like a malformed artifact.
//
// Reports both with and without the observability fields (counters,
// histogram, p999) parse: a pre-observability artifact simply reports a
// zero p999, so -max-p999 ceilings should only be pointed at artifacts
// produced by a binary that emits them.
//
// Every mode also enforces the structural invariants: at least one report,
// every report ran instances, and no report carries checker violations or
// undecided processes.
//
// Usage:
//
//	efd-trend BENCH_native.json
//	efd-trend -min-ops 50000 BENCH_native.json
//	efd-trend -max-p50 'consensus/n=4/omega/advice=event:15ms' -max-p99 250ms BENCH_native.json
//	efd-trend -history BENCH_history.jsonl -history-append BENCH_native.json
//
// Exit status: 0 on pass, 1 on any failed check, 2 on bad flags or input.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"wfadvice/internal/native"
)

func parseReports(path string) ([]*native.StressReport, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	var reps []*native.StressReport
	for {
		var r native.StressReport
		if err := dec.Decode(&r); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("%s: report %d: %v", path, len(reps)+1, err)
		}
		reps = append(reps, &r)
	}
	return reps, nil
}

// latCeiling is one parsed -max-p50/-max-p99 entry: a latency ceiling scoped
// to scenarios whose name starts with prefix ("" scopes to all).
type latCeiling struct {
	prefix string
	max    time.Duration
}

// ceilingList is a repeatable latency-ceiling flag.
type ceilingList []latCeiling

// String implements flag.Value.
func (c *ceilingList) String() string {
	parts := make([]string, len(*c))
	for i, e := range *c {
		if e.prefix == "" {
			parts[i] = e.max.String()
		} else {
			parts[i] = e.prefix + ":" + e.max.String()
		}
	}
	return strings.Join(parts, ",")
}

// Set implements flag.Value: a value is "duration" or "prefix:duration".
// The split is on the last colon — scenario names never contain one, so the
// form is unambiguous.
func (c *ceilingList) Set(s string) error {
	prefix, ds := "", s
	if i := strings.LastIndex(s, ":"); i >= 0 {
		prefix, ds = s[:i], s[i+1:]
	}
	d, err := time.ParseDuration(ds)
	if err != nil || d <= 0 {
		return fmt.Errorf("want [scenarioPrefix:]duration with a positive duration, got %q", s)
	}
	*c = append(*c, latCeiling{prefix: prefix, max: d})
	return nil
}

// match returns the ceiling applying to scenario: the entry with the longest
// matching prefix (a bare-duration entry has the empty prefix and matches
// everything). Later entries win ties, so a repeated flag can tighten.
func (c ceilingList) match(scenario string) (time.Duration, bool) {
	best, found, bestLen := time.Duration(0), false, -1
	for _, e := range c {
		if strings.HasPrefix(scenario, e.prefix) && len(e.prefix) >= bestLen {
			best, found, bestLen = e.max, true, len(e.prefix)
		}
	}
	return best, found
}

// checkOptions carries every enabled check.
type checkOptions struct {
	minOps  float64
	maxP50  ceilingList
	maxP99  ceilingList
	maxP999 ceilingList
}

// checkReports runs every enabled check over the artifact's reports and
// returns the number of failed checks. Output lines go through logf.
func checkReports(reps []*native.StressReport, opt checkOptions, logf func(format string, a ...any)) int {
	failures := 0
	failf := func(format string, a ...any) {
		failures++
		logf("FAIL  "+format, a...)
	}
	if len(reps) == 0 {
		failf("no stress reports in the artifact")
	}
	// Scenario names key the ceiling and history matches, so duplicates
	// would silently shadow each other — an artifact-structure failure, not
	// a regression.
	seen := make(map[string]bool, len(reps))
	for _, r := range reps {
		if seen[r.Scenario] {
			failf("%s: duplicate report for this scenario", r.Scenario)
		}
		seen[r.Scenario] = true
	}
	// latency applies one percentile's ceilings to one report; a matched
	// report without latency samples fails — the ceiling asserts a latency
	// profile, and a report that cannot show one cannot satisfy it.
	latency := func(r *native.StressReport, name string, got time.Duration, ceilings ceilingList) bool {
		max, ok := ceilings.match(r.Scenario)
		if !ok {
			return true
		}
		if r.Latency.Samples == 0 {
			failf("%s: %s ceiling %v applies but the report has no latency samples", r.Scenario, name, max)
			return false
		}
		if got > max {
			failf("%s: %s %v above ceiling %v", r.Scenario, name, got, max)
			return false
		}
		return true
	}
	for _, r := range reps {
		switch {
		case r.Runs == 0:
			failf("%s: zero instances ran", r.Scenario)
		case r.Failed():
			failf("%s: checker rejected the run (%d violations, %d undecided)", r.Scenario, r.Violations, r.Undecided)
		case opt.minOps > 0 && r.OpsPerSec < opt.minOps:
			failf("%s: %.0f ops/sec below floor %.0f", r.Scenario, r.OpsPerSec, opt.minOps)
		default:
			if !latency(r, "p50", r.Latency.P50, opt.maxP50) ||
				!latency(r, "p99", r.Latency.P99, opt.maxP99) ||
				!latency(r, "p999", r.Latency.P999, opt.maxP999) {
				continue
			}
			logf("ok    %s: %d runs, %.0f ops/sec, p50 %v, p99 %v",
				r.Scenario, r.Runs, r.OpsPerSec, r.Latency.P50, r.Latency.P99)
		}
	}
	return failures
}

func main() {
	var opt checkOptions
	var (
		minOps     = flag.Float64("min-ops", 0, "fail any report below this ops/sec floor (0 = skip)")
		history    = flag.String("history", "", "BENCH_history.jsonl cross-run log to gate against (missing file = empty history)")
		histWindow = flag.Int("history-window", 5, "with -history: runs that must ALL regress for the gate to fail")
		histFrac   = flag.Float64("history-frac", 0.5, "with -history: fail a scenario whose whole window is below this fraction of the recent peak")
		histAppend = flag.Bool("history-append", false, "with -history: append this artifact's summary lines when every check passes")
	)
	flag.Var(&opt.maxP50, "max-p50", "decision-latency p50 ceiling, [scenarioPrefix:]duration (repeatable; longest matching prefix wins)")
	flag.Var(&opt.maxP99, "max-p99", "decision-latency p99 ceiling, [scenarioPrefix:]duration (repeatable; longest matching prefix wins)")
	flag.Var(&opt.maxP999, "max-p999", "decision-latency p99.9 ceiling, [scenarioPrefix:]duration (repeatable; longest matching prefix wins)")
	flag.Parse()
	badFlag := func(format string, a ...any) {
		fmt.Fprintf(os.Stderr, "efd-trend: "+format+"\n", a...)
		flag.Usage()
		os.Exit(2)
	}
	if flag.NArg() != 1 {
		badFlag("exactly one BENCH_native.json argument required")
	}
	// Gate parameters outside their meaningful ranges silently disable or
	// invert the checks they tune (-history-frac 0 can never fail, 1.5
	// always fails; -history-window 0 gates on an empty window), so they
	// are flag errors, not configurations.
	if *histWindow < 1 {
		badFlag("-history-window must be at least 1, got %d", *histWindow)
	}
	if *histFrac <= 0 || *histFrac > 1 {
		badFlag("-history-frac must be in (0,1], got %v", *histFrac)
	}
	opt.minOps = *minOps
	reps, err := parseReports(flag.Arg(0))
	if err != nil {
		fmt.Fprintf(os.Stderr, "efd-trend: %v\n", err)
		os.Exit(2)
	}
	logf := func(format string, a ...any) {
		fmt.Printf(format+"\n", a...)
	}
	failures := checkReports(reps, opt, logf)
	if *history != "" {
		hist, err := parseHistory(*history)
		if err != nil {
			fmt.Fprintf(os.Stderr, "efd-trend: %v\n", err)
			os.Exit(2)
		}
		failures += checkHistory(reps, hist, *histWindow, *histFrac, logf)
		if failures == 0 && *histAppend {
			if err := appendHistory(*history, reps); err != nil {
				fmt.Fprintf(os.Stderr, "efd-trend: %v\n", err)
				os.Exit(2)
			}
			fmt.Printf("efd-trend: appended %d summary lines to %s\n", len(reps), *history)
		}
	}
	if failures > 0 {
		fmt.Printf("efd-trend: %d failed checks over %d reports\n", failures, len(reps))
		os.Exit(1)
	}
	fmt.Printf("efd-trend: %d reports ok\n", len(reps))
}
