// Command efd-stress hammers one task on the native hardware-speed backend:
// a pool of workers runs back-to-back instances of the task's advice-based
// algorithm — real goroutines over atomics-backed registers, live
// failure-detector advice, injected S-process crashes — until the wall-clock
// budget elapses, then reports throughput in decisions per second,
// decision-latency percentiles and the post-hoc checker verdicts.
//
// Usage examples:
//
//	efd-stress -task consensus -n 4 -duration 2s
//	efd-stress -task kset -n 5 -k 2 -crash 2 -duration 5s -json
//	efd-stress -task consensus -n 4 -chaos flap:8 -duration 2s
//	efd-stress -task consensus -n 4 -crash 2 -crash-storm -chaos flap:8 -duration 2s
//	efd-stress -task renaming -n 5 -j 4 -k 2 -rate 100
//	efd-stress -task consensus -n 4 -advice event -duration 2s
//	efd-stress -task consensus -n 4 -duration 10m -snapshot 30s
//	efd-stress -task consensus -n 4 -duration 30s -http 127.0.0.1:9190
//	efd-stress -task consensus -n 4 -duration 5s -trace-out trace.json
//
// The -snapshot form is the native soak profile: every interval a progress
// line goes to stderr — runs and decisions so far, the goroutine count, the
// live heap, and the per-second rate of every native counter that moved in
// the interval (advice publications, notifier wakeups and timeouts among
// them). It is the /progress document -http serves, printed by the debug
// endpoint's heartbeat. After the run the goroutine and heap series is
// audited for growth, and a detected leak fails the command like a checker
// violation. The interval may be at most half of -duration, so the audit
// has two halves to compare.
//
// -http serves the live debug endpoint while the run is going: /metrics
// (Prometheus text: every native counter, the decision-latency histogram,
// runtime gauges), /progress, /trace (the decision-lifecycle ring;
// ?format=chrome for chrome://tracing / Perfetto), /debug/pprof/* and
// /debug/vars. -trace-out writes the Chrome-format trace dump to a file when
// the run ends; either flag arms the tracer, whose ring keeps the last
// 65 536 events.
//
// The detector is the task's (Ω for consensus, vector-Ωk for kset, renaming
// and prop1, none for nset), and the Go runtime's own GOMAXPROCS sets how
// many CPUs the processes share.
//
// Exit status: 0 on success, 1 if any instance failed the checker (a ∆
// violation or an undecided C-process) or the soak leak audit, 2 on bad
// flags.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"time"

	"wfadvice/internal/core"
	"wfadvice/internal/fdet"
	"wfadvice/internal/native"
	"wfadvice/internal/obs"
)

func main() {
	var (
		taskName   = flag.String("task", "consensus", "task/algorithm: "+strings.Join(core.ScenarioTasks(), " | "))
		n          = flag.Int("n", 4, "number of C-processes (= S-processes)")
		k          = flag.Int("k", 1, "agreement bound / concurrency level")
		j          = flag.Int("j", 0, "renaming participants (0 = n-1)")
		crash      = flag.Int("crash", 0, "number of S-processes to crash mid-run")
		crashAt    = flag.Int("crash-at", 0, "first crash time in ticks (0 = default 50)")
		crashStorm = flag.Bool("crash-storm", false, "compress the crashes back to back instead of spacing them (needs -crash > 0)")
		chaos      = flag.String("chaos", "", "hostile pre-stabilization advice: "+strings.Join(fdet.ChaosModes(), " | ")+"[:window] (default none)")
		stabilize  = flag.Int("stabilize", 0, "advice stabilization time in ticks (0 = default 100)")
		advice     = flag.String("advice", "", "how waiting processes wait: "+strings.Join(core.ScenarioAdviceModes(), " | ")+" (tick yields, event parks on the change epoch; default tick)")
		workers    = flag.Int("workers", 0, "concurrent instances (0 = GOMAXPROCS / instance goroutines)")
		duration   = flag.Duration("duration", 2*time.Second, "total stress wall-clock budget")
		runBudget  = flag.Duration("run-budget", 20*time.Second, "per-instance wall-clock budget")
		rate       = flag.Float64("rate", 0, "throttle instance starts per second (0 = unthrottled)")
		tick       = flag.Duration("tick", 0, "clock tick = one model time unit (0 = default 100µs)")
		seed       = flag.Int64("seed", 1, "root seed for advice histories")
		snapshot   = flag.Duration("snapshot", 0, "soak profile: print a progress line every interval (0 = off, at most half of -duration); goroutine or heap growth across the lines fails the run")
		jsonOut    = flag.Bool("json", false, "emit the report as JSON on stdout")
		httpAddr   = flag.String("http", "", "serve the live debug endpoint (/metrics, /trace, /debug/pprof) on this address for the duration of the run")
		traceOut   = flag.String("trace-out", "", "write the decision-lifecycle trace (Chrome trace format) to this file at exit")
	)
	flag.Parse()
	// A value outside its meaningful range silently disables or inverts what
	// it tunes (a non-positive -duration runs nothing and reports OK), so it
	// is a flag error, not a configuration: usage and exit 2, as in efd-kv.
	badFlag := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "efd-stress: "+format+"\n", args...)
		flag.Usage()
		os.Exit(2)
	}
	switch {
	case *duration <= 0:
		badFlag("-duration must be positive, got %v", *duration)
	case *runBudget <= 0:
		badFlag("-run-budget must be positive, got %v", *runBudget)
	case !(*rate >= 0) || math.IsInf(*rate, 1):
		badFlag("-rate must be finite and non-negative, got %v (0 = unthrottled)", *rate)
	case *workers < 0:
		badFlag("-workers must be non-negative, got %d (0 = sized to GOMAXPROCS)", *workers)
	case *snapshot < 0:
		badFlag("-snapshot must be non-negative, got %v (0 = off)", *snapshot)
	case *snapshot > *duration/2:
		badFlag("-snapshot must be at most half of -duration (%v), got %v: the leak audit compares two halves of the series", *duration, *snapshot)
	case *k < 0:
		badFlag("-k must be non-negative, got %d (0 = default 1)", *k)
	case *j < 0:
		badFlag("-j must be non-negative, got %d (0 = n-1)", *j)
	case *crash < 0:
		badFlag("-crash must be non-negative, got %d", *crash)
	case *crashAt < 0:
		badFlag("-crash-at must be non-negative, got %d (0 = default 50)", *crashAt)
	case *stabilize < 0:
		badFlag("-stabilize must be non-negative, got %d (0 = default 100)", *stabilize)
	case *tick < 0:
		badFlag("-tick must be non-negative, got %v (0 = default 100µs)", *tick)
	}
	sc, err := core.NewScenario(core.ScenarioParams{
		Task: *taskName, N: *n, K: *k, J: *j,
		Crash: *crash, CrashAt: fdet.Time(*crashAt), Storm: *crashStorm,
		Stabilize: fdet.Time(*stabilize), Advice: *advice, Chaos: *chaos,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "efd-stress: %v\n", err)
		os.Exit(2)
	}
	// Observability surface: the tracer is armed by either trace flag, the
	// latency histogram is shared with the harness so /metrics can serve
	// live percentiles mid-run.
	var tracer *obs.Tracer
	if *httpAddr != "" || *traceOut != "" {
		tracer = native.NewTracer(1 << 16)
	}
	latency := obs.NewHistogram()
	// The soak profile is the debug endpoint's heartbeat at -snapshot, its
	// line the /progress document; the soak records every beat's gauges.
	soak, start := new(obs.Soak), native.Telemetry.Snapshot()
	stopHTTP, err := obs.ServeDebug("efd-stress", *httpAddr, *snapshot, obs.DebugOptions{
		Layers:     []*obs.Taxonomy{native.Telemetry},
		Histograms: map[string]*obs.Histogram{"decision_latency_ns": latency},
		Tracer:     tracer,
		Progress: func() any {
			d := native.Telemetry.Snapshot().Delta(start).Map()
			return obs.WithProcess(map[string]any{"runs": d["run_start"], "decisions": d["decide"]})
		},
		Soak: soak,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "efd-stress: -http: %v\n", err)
		os.Exit(2)
	}
	rep, err := native.Stress(sc.Name, sc.Task, func(s int64) (native.Config, error) {
		return sc.NativeConfig(s, *tick), nil
	}, native.StressOptions{
		Duration:  *duration,
		RunBudget: *runBudget,
		Workers:   *workers,
		Rate:      *rate,
		Seed:      *seed,
		Tracer:    tracer,
		Latency:   latency,
	})
	stopHTTP()
	if err != nil {
		fmt.Fprintf(os.Stderr, "efd-stress: %v\n", err)
		os.Exit(2)
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintf(os.Stderr, "efd-stress: %v\n", err)
			os.Exit(2)
		}
	} else {
		fmt.Print(rep.Render())
	}
	if *traceOut != "" {
		if err := tracer.WriteChromeFile(*traceOut); err != nil {
			fmt.Fprintf(os.Stderr, "efd-stress: -trace-out: %v\n", err)
			os.Exit(2)
		}
	}
	leakErr := soak.Check()
	if leakErr != nil {
		fmt.Fprintf(os.Stderr, "efd-stress: soak leak audit: %v\n", leakErr)
	}
	if rep.Failed() || leakErr != nil {
		os.Exit(1)
	}
}
