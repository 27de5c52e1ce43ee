// Command efd-stress hammers one task on the native hardware-speed backend:
// a pool of workers runs back-to-back instances of the task's advice-based
// algorithm — real goroutines over atomics-backed registers, live
// failure-detector advice, injected S-process crashes — until the wall-clock
// budget elapses, then reports throughput, decision-latency percentiles and
// the post-hoc checker verdicts.
//
// Usage examples:
//
//	efd-stress -task consensus -n 4 -duration 2s
//	efd-stress -task kset -n 5 -k 2 -crash 2 -duration 5s -json
//	efd-stress -task consensus -n 4 -chaos flap:8 -duration 2s
//	efd-stress -task consensus -n 4 -crash 2 -crash-storm -chaos flap:8 -duration 2s
//	efd-stress -task renaming -n 5 -j 4 -k 2 -procs 8 -rate 100
//	efd-stress -task consensus -n 4 -advice event -duration 2s
//	efd-stress -task consensus -n 4 -pin -duration 2s
//	efd-stress -task consensus -n 4 -duration 10m -snapshot 30s
//	efd-stress -task consensus -n 4 -duration 30s -http 127.0.0.1:9190
//	efd-stress -task consensus -n 4 -duration 5s -trace-out trace.json
//
// The -snapshot form is the native soak profile: periodic report snapshots
// (cumulative runs/ops, interval throughput, goroutine and heap gauges, and
// the native counter deltas — advice publications and notifier wakeups —
// for the interval) are printed to stderr as the run progresses and
// embedded in the -json report; after the run the snapshot series is
// audited for goroutine/heap growth and a detected leak fails the command
// like a checker violation.
//
// -http serves the live debug endpoint while the run is going: /metrics
// (Prometheus text: every native counter, the decision-latency histogram,
// runtime gauges), /trace (the decision-lifecycle ring; ?format=chrome for
// chrome://tracing / Perfetto), /debug/pprof/* and /debug/vars. -trace-out
// writes the Chrome-format trace dump to a file when the run ends; either
// flag arms the tracer.
//
// Exit status: 0 on success, 1 if any instance failed the checker (a ∆
// violation or an undecided C-process) or the soak leak audit, 2 on bad
// flags.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
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
		detector   = flag.String("detector", "", "advice detector override: "+strings.Join(core.ScenarioDetectors(), " | ")+" (default: the task's)")
		crash      = flag.Int("crash", 0, "number of S-processes to crash mid-run")
		crashAt    = flag.Int("crash-at", 0, "first crash time in ticks (0 = default 50)")
		crashStorm = flag.Bool("crash-storm", false, "compress the crashes back to back instead of spacing them (needs -crash > 0)")
		chaos      = flag.String("chaos", "", "hostile pre-stabilization advice: "+strings.Join(fdet.ChaosModes(), " | ")+"[:window] (default none)")
		stabilize  = flag.Int("stabilize", 0, "advice stabilization time in ticks (0 = default 100)")
		advice     = flag.String("advice", "", "how waiting processes wait: "+strings.Join(core.ScenarioAdviceModes(), " | ")+" (tick yields, event parks on the change epoch; default tick)")
		procs      = flag.Int("procs", 0, "GOMAXPROCS for the whole process (0 = leave as is)")
		workers    = flag.Int("workers", 0, "concurrent instances (0 = GOMAXPROCS / instance goroutines)")
		duration   = flag.Duration("duration", 2*time.Second, "total stress wall-clock budget")
		runBudget  = flag.Duration("run-budget", 20*time.Second, "per-instance wall-clock budget")
		rate       = flag.Float64("rate", 0, "throttle instance starts per second (0 = unthrottled)")
		tick       = flag.Duration("tick", 0, "clock tick = one model time unit (0 = default 100µs)")
		seed       = flag.Int64("seed", 1, "root seed for advice histories")
		pin        = flag.Bool("pin", false, "lock every process goroutine to its own OS thread (kernel-scheduled instances)")
		snapshot   = flag.Duration("snapshot", 0, "soak profile: emit a report snapshot every interval (0 = off); leak growth across snapshots fails the run")
		jsonOut    = flag.Bool("json", false, "emit the report as JSON on stdout")
		httpAddr   = flag.String("http", "", "serve the live debug endpoint (/metrics, /trace, /debug/pprof) on this address for the duration of the run")
		traceOut   = flag.String("trace-out", "", "write the decision-lifecycle trace (Chrome trace format) to this file at exit")
		traceCap   = flag.Int("trace-buf", 1<<16, "trace ring capacity in events (oldest events are dropped beyond it)")
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
	case *rate < 0:
		badFlag("-rate must be non-negative, got %v (0 = unthrottled)", *rate)
	case *workers < 0:
		badFlag("-workers must be non-negative, got %d (0 = sized to GOMAXPROCS)", *workers)
	case *snapshot < 0:
		badFlag("-snapshot must be non-negative, got %v (0 = off)", *snapshot)
	case *procs < 0:
		badFlag("-procs must be non-negative, got %d (0 = leave as is)", *procs)
	}
	if *procs > 0 {
		runtime.GOMAXPROCS(*procs)
	}
	sc, err := core.NewScenario(core.ScenarioParams{
		Task: *taskName, N: *n, K: *k, J: *j,
		Crash: *crash, CrashAt: fdet.Time(*crashAt), Storm: *crashStorm,
		Detector: *detector, Stabilize: fdet.Time(*stabilize),
		Advice: *advice, Chaos: *chaos,
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
		tracer = native.NewTracer(*traceCap)
	}
	latency := obs.NewHistogram()
	stopHTTP, err := obs.ServeDebug("efd-stress", *httpAddr, 0, obs.DebugOptions{
		Layers:     []*obs.Taxonomy{native.Telemetry},
		Histograms: map[string]*obs.Histogram{"decision_latency_ns": latency},
		Tracer:     tracer,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "efd-stress: -http: %v\n", err)
		os.Exit(2)
	}
	defer stopHTTP()
	rep, err := native.Stress(sc.Name, sc.Task, func(s int64) (native.Config, error) {
		return sc.NativeConfig(s, *tick), nil
	}, native.StressOptions{
		Duration:      *duration,
		RunBudget:     *runBudget,
		Workers:       *workers,
		Rate:          *rate,
		Seed:          *seed,
		Pin:           *pin,
		SnapshotEvery: *snapshot,
		Tracer:        tracer,
		Latency:       latency,
		OnSnapshot: func(s native.SoakSnapshot) {
			d := s.CounterDelta
			fmt.Fprintf(os.Stderr, "soak %8s  runs=%d ops=%d interval=%.0f ops/s goroutines=%d heap=%dMB pubs=%d wakeups=%d timeouts=%d\n",
				s.Elapsed.Round(time.Second), s.Runs, s.Ops, s.IntervalOpsPerSec,
				s.Goroutines, s.HeapAlloc>>20,
				d["advice_pub_coop"]+d["advice_pub_waker"], d["notify_wake"], d["notify_timeout"])
		},
	})
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
	leakErr := rep.LeakCheck()
	if leakErr != nil {
		fmt.Fprintf(os.Stderr, "efd-stress: soak leak audit: %v\n", leakErr)
	}
	if rep.Failed() || leakErr != nil {
		os.Exit(1)
	}
}
