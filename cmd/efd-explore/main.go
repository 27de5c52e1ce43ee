// Command efd-explore drives the internal/explore bounded model checker
// over the violation specs: systematic schedule exploration with trace
// record/replay and counterexample shrinking.
//
// Usage examples:
//
//	efd-explore -task strongrename -n 2 -j 2 -depth 12              # exhaustive bounded sweep
//	efd-explore -task kset -n 3 -k 1 -depth 18 -mode first          # minimal-depth witness
//	efd-explore -task strongrename -idle-s 2 -mode random -shrink   # random witness, minimized
//	efd-explore -task strongrename -depth 12 -trace-out w.trace     # record the witness
//	efd-explore -replay w.trace                                     # verify a recording
//	efd-explore -task kset -n 3 -k 1 -depth 20 -http 127.0.0.1:9191 # live telemetry
//	efd-explore -task kset -n 3 -k 1 -depth 20 -progress 2s         # stderr heartbeat
//
// -http serves the live debug endpoint while the search runs: /metrics
// (Prometheus text: the explorer and sim counter taxonomies, the
// node-depth histogram, frontier/sweep/item gauges), /progress (a compact
// JSON progress document), /debug/pprof/* and /debug/vars. -progress
// prints that same document to stderr every interval as one heartbeat line
// — nodes replayed, frontier depth, prune counters, work-item progress —
// followed by the interval's explorer counter rates (explore_node/s, …), in
// the same tagged k=v shape as `efd-stress -snapshot`. Neither flag changes
// the search or the report: telemetry is strictly outside explore.Report.
//
// -replay also takes the trace of a seed sweep over a core scenario
// (explore.Sweep of Scenario.ExploreSpec): its meta lines carry the
// scenario's parameters and seed, from which the spec is rebuilt.
//
// Exit codes: 0 on success, 1 when -expect mismatches the violation count,
// when no violation is found, or when a replay diverges; 2 on bad flags.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"wfadvice/internal/core"
	"wfadvice/internal/explore"
	"wfadvice/internal/obs"
	"wfadvice/internal/sim"
	"wfadvice/internal/wfree"
)

const (
	taskStrongRename = "strongrename"
	taskKSet         = "kset"
)

var taskNames = []string{taskStrongRename, taskKSet}

const (
	modeExhaust = "exhaust"
	modeFirst   = "first"
	modeRandom  = "random"
)

var modeNames = []string{modeExhaust, modeFirst, modeRandom}

// randomRuns is the number of seeds -mode random sweeps.
const randomRuns = 64

// badFlag reports a flag value the search cannot use, prints the usage and
// exits 2, as efd-stress and efd-kv do.
func badFlag(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "efd-explore: "+format+"\n", args...)
	flag.Usage()
	os.Exit(2)
}

// specFor builds the violation spec selected by the task flags, or says
// which of them it cannot judge.
func specFor(task string, n, j, k, idleS int) (explore.Spec, error) {
	if n < 1 {
		return explore.Spec{}, fmt.Errorf("need -n ≥ 1, got %d", n)
	}
	if idleS < 0 {
		return explore.Spec{}, fmt.Errorf("need -idle-s ≥ 0, got %d", idleS)
	}
	switch task {
	case taskStrongRename:
		if j < 1 {
			return explore.Spec{}, fmt.Errorf("need -j ≥ 1, got %d", j)
		}
		if j > n {
			return explore.Spec{}, fmt.Errorf("need -n ≥ -j (%d participants on %d slots)", j, n)
		}
		return wfree.StrongRenamingSpec(n, j, idleS), nil
	case taskKSet:
		if k < 1 {
			return explore.Spec{}, fmt.Errorf("need -k ≥ 1, got %d", k)
		}
		if k+1 > n {
			return explore.Spec{}, fmt.Errorf("need -n ≥ k+1 (violation search runs k+1 participants)")
		}
		return wfree.KSetSpec(n, k+1, k, idleS), nil
	default:
		return explore.Spec{}, fmt.Errorf("unknown task %q", task)
	}
}

// specFromMeta rebuilds the spec a recorded trace ran on: a scenario's
// (core.Scenario.ExploreSpec, with the check its sweep judged by) from the
// parameters and seed the trace carries, or a violation spec.
func specFromMeta(meta map[string]string) (explore.Spec, error) {
	if params, ok := meta["params"]; ok {
		var p core.ScenarioParams
		if err := json.Unmarshal([]byte(params), &p); err != nil {
			return explore.Spec{}, fmt.Errorf("trace params: %v", err)
		}
		seed, err := strconv.ParseInt(meta["seed"], 10, 64)
		if err != nil {
			return explore.Spec{}, fmt.Errorf("trace seed: %v", err)
		}
		s, err := core.NewScenario(p)
		if err != nil {
			return explore.Spec{}, err
		}
		return s.ExploreSpec(seed), nil
	}
	// A key the trace leaves out keeps its flag default; one it sets must
	// be an integer.
	var bad error
	geti := func(key string, def int) int {
		s, ok := meta[key]
		if !ok {
			return def
		}
		v, err := strconv.Atoi(s)
		if err != nil && bad == nil {
			bad = fmt.Errorf("trace %s: %v", key, err)
		}
		return v
	}
	n, j, k, idleS := geti("n", 2), geti("j", 2), geti("k", 1), geti("idle-s", 0)
	if bad != nil {
		return explore.Spec{}, bad
	}
	return specFor(meta["task"], n, j, k, idleS)
}

// report is the -json document.
type report struct {
	Explore *explore.Report        `json:"explore,omitempty"`
	Random  *explore.SweepOutcome  `json:"random,omitempty"`
	Shrink  *shrinkReport          `json:"shrink,omitempty"`
	Replay  *explore.ReplayOutcome `json:"replay,omitempty"`
}

type shrinkReport struct {
	OriginalSteps int     `json:"original_steps"`
	ShrunkSteps   int     `json:"shrunk_steps"`
	Ratio         float64 `json:"ratio"`
	Runs          int     `json:"runs"`
}

func main() {
	var (
		task     = flag.String("task", taskStrongRename, "violation spec: strongrename | kset")
		n        = flag.Int("n", 2, "register table slots (system size)")
		j        = flag.Int("j", 2, "renaming participants (strongrename)")
		k        = flag.Int("k", 1, "agreement bound; the search runs k+1 participants (kset)")
		idleS    = flag.Int("idle-s", 0, "idle S-processes padding the schedule (shrinker demos)")
		depth    = flag.Int("depth", 12, "schedule-length horizon")
		workers  = flag.Int("workers", 0, "sub-tree workers, or seed workers in -mode random (0 = GOMAXPROCS); reports are identical for any value")
		mode     = flag.String("mode", modeExhaust, "search mode: exhaust | first | random")
		noPrune  = flag.Bool("no-prune", false, "disable sleep sets and state hashing (raw enumeration)")
		maxRuns  = flag.Int("max-runs", 0, "run budget per sweep (0 = default)")
		traceOut = flag.String("trace-out", "", "write the (shrunk, if -shrink) witness trace to this file")
		shrink   = flag.Bool("shrink", false, "ddmin-minimize the witness schedule")
		replay   = flag.String("replay", "", "replay a recorded trace file and verify the verdict")
		expect   = flag.Int("expect", -1, "fail unless the violation count equals this (-1 = no check)")
		jsonOut  = flag.Bool("json", false, "emit the machine-readable report on stdout")
		httpAddr = flag.String("http", "", "serve the live debug endpoint (/metrics, /progress, /debug/pprof) on this address for the duration of the search")
		progress = flag.Duration("progress", 0, "emit a progress heartbeat to stderr every interval (0 = off)")
	)
	flag.Parse()

	switch {
	case !slices.Contains(taskNames, *task):
		badFlag("unknown -task %q (valid: %s)", *task, strings.Join(taskNames, " | "))
	case !slices.Contains(modeNames, *mode):
		badFlag("unknown -mode %q (valid: %s)", *mode, strings.Join(modeNames, " | "))
	case *depth < 1:
		badFlag("-depth must be at least 1, got %d", *depth)
	case *workers < 0:
		badFlag("-workers must be non-negative, got %d (0 = GOMAXPROCS)", *workers)
	case *maxRuns < 0:
		badFlag("-max-runs must be non-negative, got %d (0 = default)", *maxRuns)
	case *progress < 0:
		badFlag("-progress must be non-negative, got %v (0 = off)", *progress)
	case *expect < -1:
		badFlag("-expect must be a count or -1 (no check), got %d", *expect)
	}
	// -mode random sweeps randomRuns seeds, with neither pruning nor a run
	// budget to set: a flag that would be ignored is refused instead.
	if *mode == modeRandom {
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "no-prune" || f.Name == "max-runs" {
				badFlag("-%s does not apply to -mode random, which sweeps %d seeds", f.Name, randomRuns)
			}
		})
	}

	start := time.Now()
	stopHTTP, err := obs.ServeDebug("efd-explore", *httpAddr, *progress, obs.DebugOptions{
		Layers:   []*obs.Taxonomy{explore.Telemetry, sim.Telemetry},
		Progress: func() any { return progressDoc(start) },
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "efd-explore: -http: %v\n", err)
		os.Exit(2)
	}
	defer stopHTTP()

	if *replay != "" {
		os.Exit(runReplay(*replay, *jsonOut))
	}

	spec, err := specFor(*task, *n, *j, *k, *idleS)
	if err != nil {
		badFlag("%v", err)
	}

	rep := &report{}
	var violations int
	var outTrace *explore.Trace // the witness, shrunk with -shrink
	switch *mode {
	case modeRandom:
		ro := explore.Sweep(explore.Uniform(spec), 4*(*depth), 1, randomRuns, *workers)
		rep.Random, violations, outTrace = ro, ro.Hits, ro.Trace
		if !*jsonOut {
			fmt.Printf("random: tried=%d hits=%d", ro.Tried, ro.Hits)
			if ro.Hits > 0 {
				fmt.Printf(" seed=%d steps=%d err=%s", ro.Seed, ro.Steps, ro.Err)
			}
			fmt.Println()
		}
	default:
		m := explore.ModeExhaust
		if *mode == modeFirst {
			m = explore.ModeFirst
		}
		xr, err := explore.Explore(spec, explore.Options{
			MaxDepth: *depth, Workers: *workers, Mode: m, NoPrune: *noPrune, MaxRuns: *maxRuns,
		})
		if err != nil {
			fatal(err)
		}
		rep.Explore, violations = xr, xr.Violations
		// Record the shallowest stored witness (exhaust mode collects them
		// in DFS order, which is not depth order).
		best := -1
		for i, w := range xr.Witness {
			if best < 0 || w.Depth < xr.Witness[best].Depth {
				best = i
			}
		}
		if best >= 0 {
			w := xr.Witness[best]
			outTrace = &explore.Trace{Spec: spec.Name, Meta: spec.Meta, Verdict: w.Err, Steps: w.Steps}
		}
		if !*jsonOut {
			fmt.Print(xr.Render())
		}
	}

	if outTrace != nil && *shrink {
		sr, err := explore.Shrink(spec, outTrace.Schedule())
		if err != nil {
			fatal(err)
		}
		rep.Shrink = &shrinkReport{
			OriginalSteps: sr.OriginalSteps, ShrunkSteps: sr.ShrunkSteps,
			Ratio: sr.Ratio(), Runs: sr.Runs,
		}
		outTrace = sr.Trace
		if !*jsonOut {
			fmt.Printf("shrink: %d steps -> %d (ratio %.2f, %d candidate runs)\n",
				sr.OriginalSteps, sr.ShrunkSteps, sr.Ratio(), sr.Runs)
		}
	}
	if *traceOut != "" {
		if outTrace == nil {
			fmt.Fprintln(os.Stderr, "efd-explore: no witness trace to write")
			os.Exit(1)
		}
		if err := os.WriteFile(*traceOut, []byte(outTrace.Format()), 0o644); err != nil {
			fatal(err)
		}
		if !*jsonOut {
			fmt.Printf("trace: wrote %d steps to %s\n", len(outTrace.Steps), *traceOut)
		}
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fatal(err)
		}
	}
	if *expect >= 0 && violations != *expect {
		fmt.Fprintf(os.Stderr, "efd-explore: violation count %d, expected %d\n", violations, *expect)
		os.Exit(1)
	}
	if *expect < 0 && violations == 0 {
		fmt.Fprintln(os.Stderr, "efd-explore: no violation found")
		os.Exit(1)
	}
}

// progressDoc assembles the /progress JSON payload: cumulative explorer
// and sim counters plus the live gauges.
func progressDoc(start time.Time) any {
	x := explore.Telemetry.Snapshot().Map()
	s := sim.Telemetry.Snapshot().Map()
	g := explore.Telemetry.Gauges()
	return map[string]any{
		"elapsed_s":      time.Since(start).Seconds(),
		"nodes":          x["explore_node"],
		"sim_steps":      s["sim_step"],
		"terminals":      x["explore_terminal"],
		"dedup_hits":     x["explore_dedup_hit"],
		"sleep_prunes":   x["explore_sleep_prune"],
		"violations":     x["explore_violation"],
		"sweeps":         x["explore_sweep"],
		"frontier_depth": g["explore_frontier_depth"],
		"sweep_depth":    g["explore_sweep_depth"],
		"items_done":     g["explore_items_done"],
		"items_total":    g["explore_items_total"],
		"shrink_len":     g["explore_shrink_len"],
		"shrink_runs":    x["explore_shrink_run"],
	}
}

func runReplay(path string, jsonOut bool) int {
	data, err := os.ReadFile(path)
	if err != nil {
		fatal(err)
	}
	tr, err := explore.ParseTrace(string(data))
	if err != nil {
		fatal(err)
	}
	spec, err := specFromMeta(tr.Meta)
	if err != nil {
		fatal(err)
	}
	out, err := explore.ReplayTrace(spec, tr)
	if err != nil {
		fatal(err)
	}
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(&report{Replay: out}); err != nil {
			fatal(err)
		}
	} else {
		fmt.Printf("replay: spec=%s steps=%d match=%v verdict=%s\n", tr.Spec, out.Steps, out.Match, out.Verdict)
		if out.Divergence != "" {
			fmt.Printf("  divergence: %s\n", out.Divergence)
		}
	}
	if !out.Match {
		return 1
	}
	return 0
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "efd-explore: %v\n", err)
	os.Exit(2)
}
