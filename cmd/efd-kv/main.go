// Command efd-kv stress-tests the replicated key-value store on the native
// hardware-speed backend: n replicas chain multi-Paxos slots over
// atomics-backed registers under live Ω advice, while a pool of clerks
// issues an open-loop Get/Put workload — operation k is due at k·interval
// on a global schedule regardless of completions, so queueing delay counts
// against the service instead of silently throttling the offered load.
// -rate 0, or a rate so high that a clerk's interval rounds to 0 ns, runs
// closed loop instead (every clerk issues its next operation when the
// previous one completes; the report's scenario key then ends in
// /closed-loop, so the two kinds of latency never share a scenario key).
// Every clerk session is checked for linearizability (version replay plus
// real-time order) while the run goes on: each clerk hands its records to
// the run's checker a chunk at a time and records on into a checked chunk,
// so a run of any length holds a few chunks a clerk, and the kv task's ∆
// over the decided sessions is that checker's verdict.
//
// Usage examples:
//
//	efd-kv -n 3 -duration 2s
//	efd-kv -n 3 -clients 8 -rate 20000 -duration 5s -json
//	efd-kv -n 3 -clients 4 -rate 0 -put-frac 1 -duration 2s
//	efd-kv -n 3 -crash-leader 1 -duration 2s
//	efd-kv -n 3 -advice event -duration 2s
//	efd-kv -n 3 -duration 30s -http 127.0.0.1:9191
//	efd-kv -n 3 -clients 4 -rate 0 -put-frac 1 -duration 10m -snapshot 30s
//	efd-kv -n 5 -chaos flap:8 -crash-storm -clerk-timeout 500ms -duration 2s
//
// -chaos wraps the advice in a hostile pre-stabilization schedule (flap,
// lie or diverge, with an optional :window in ticks); -crash-storm
// compresses the leader kills back to back (implying -crash-leader n-1
// when it is not set), and each kill targets whoever the advice names at
// that instant. -clerk-timeout bounds every client operation: on expiry
// the op is recorded as timed out and the session moves on, so a degraded
// service produces visible timeouts, never a hung clerk.
//
// The -snapshot form is the soak profile, as in efd-stress: every interval
// a progress line goes to stderr (clerk ops and timeouts so far, the
// goroutine count, the live heap, and the per-second rate of every native
// counter that moved), and after the run the goroutine and heap series is
// audited for growth; a detected leak fails the command like a checker
// violation. The interval may be at most half of -duration.
//
// -http serves the live debug endpoint while the run is going: /metrics
// (native and kv counters, per-op-kind latency histograms, the overall
// open-loop latency histogram), /progress (clerk ops completed, timeouts,
// goroutines and live heap), /trace, /debug/pprof/* and /debug/vars.
// -trace-out writes the Chrome-format trace dump to a file when the run
// ends; either flag arms the tracer, whose ring keeps the last 65 536
// events.
//
// Exit status: 0 on success, 1 if the checker rejected the run (a
// linearizability violation or an undecided clerk) or the soak leak audit
// failed, 2 on bad flags.
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
	"wfadvice/internal/kv"
	"wfadvice/internal/native"
	"wfadvice/internal/obs"
)

func main() {
	var (
		n           = flag.Int("n", 3, "number of replicas (S-processes)")
		clients     = flag.Int("clients", 0, "number of clerk sessions (0 = n)")
		rate        = flag.Float64("rate", 10000, "total offered load in client ops/sec across all clerks (0 = closed loop: every clerk issues on completion)")
		duration    = flag.Duration("duration", 2*time.Second, "issue window; the run drains in-flight ops afterwards")
		runBudget   = flag.Duration("run-budget", 0, "whole-run wall-clock cap including drain (0 = duration + 10s)")
		crashLeader = flag.Int("crash-leader", 0, "crash that many acting leaders mid-workload (whoever the advice names at each crash time)")
		crashAt     = flag.Int("crash-at", 0, "first leader crash time in ticks (0 = stabilize + 100)")
		crashStorm  = flag.Bool("crash-storm", false, "compress the leader kills back to back (implies -crash-leader n-1 when unset)")
		chaos       = flag.String("chaos", "", "hostile pre-stabilization advice: "+strings.Join(fdet.ChaosModes(), " | ")+"[:window] (default none)")
		clerkTO     = flag.Duration("clerk-timeout", time.Second, "per-operation clerk deadline; expired ops are recorded as timeouts (0 = wait forever)")
		stabilize   = flag.Int("stabilize", 0, "advice stabilization time in ticks (0 = default 100)")
		advice      = flag.String("advice", "", "how waiting processes wait: "+strings.Join(core.ScenarioAdviceModes(), " | ")+" (tick yields, event parks on the change epoch; default tick)")
		tick        = flag.Duration("tick", 0, "clock tick = one model time unit (0 = default 100µs)")
		seed        = flag.Int64("seed", 1, "root seed for advice history and clerk scripts")
		putFrac     = flag.Float64("put-frac", 0.5, "fraction of Puts in the workload (0 = Gets only, 1 = Puts only)")
		snapshot    = flag.Duration("snapshot", 0, "soak profile: print a progress line every interval (0 = off, at most half of -duration); goroutine or heap growth across the lines fails the run")
		jsonOut     = flag.Bool("json", false, "emit the report as JSON on stdout")
		httpAddr    = flag.String("http", "", "serve the live debug endpoint (/metrics, /trace, /debug/pprof) on this address for the duration of the run")
		traceOut    = flag.String("trace-out", "", "write the decision-lifecycle trace (Chrome trace format) to this file at exit")
	)
	flag.Parse()
	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "efd-kv: "+format+"\n", args...)
		os.Exit(2)
	}
	// Flag errors print the usage too: a value outside its meaningful range
	// silently disables or inverts what it tunes, so it is a flag error, not
	// a configuration.
	badFlag := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "efd-kv: "+format+"\n", args...)
		flag.Usage()
		os.Exit(2)
	}
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if *n < 1 {
		badFlag("-n must be at least 1, got %d", *n)
	}
	if set["clients"] && *clients < 1 {
		badFlag("-clients must be at least 1, got %d (omit the flag for the default of n)", *clients)
	}
	if *duration <= 0 {
		badFlag("-duration must be positive, got %v", *duration)
	}
	if !(*rate >= 0) || math.IsInf(*rate, 1) {
		badFlag("-rate must be finite and non-negative, got %v (0 = closed loop)", *rate)
	}
	if !(*putFrac >= 0 && *putFrac <= 1) {
		badFlag("-put-frac must be in [0,1], got %v", *putFrac)
	}
	if *crashStorm && !set["crash-leader"] {
		*crashLeader = *n - 1
	}
	if *crashStorm && *crashLeader < 1 {
		badFlag("-crash-storm needs -crash-leader > 0 (or at least 2 replicas), got %d", *crashLeader)
	}
	if *crashLeader < 0 || (*crashLeader > 0 && *crashLeader >= *n) {
		badFlag("-crash-leader must leave a live replica: want 0..%d, got %d", *n-1, *crashLeader)
	}
	if *clerkTO < 0 {
		badFlag("-clerk-timeout must be non-negative, got %v", *clerkTO)
	}
	if *runBudget < 0 {
		badFlag("-run-budget must be non-negative, got %v (0 = duration + 10s)", *runBudget)
	}
	if *crashAt < 0 {
		badFlag("-crash-at must be non-negative, got %d (0 = stabilize + 100)", *crashAt)
	}
	if *stabilize < 0 {
		badFlag("-stabilize must be non-negative, got %d (0 = default 100)", *stabilize)
	}
	if *tick < 0 {
		badFlag("-tick must be non-negative, got %v (0 = default 100µs)", *tick)
	}
	if *snapshot < 0 {
		badFlag("-snapshot must be non-negative, got %v (0 = off)", *snapshot)
	}
	if *snapshot > *duration/2 {
		badFlag("-snapshot must be at most half of -duration (%v), got %v: the leak audit compares two halves of the series", *duration, *snapshot)
	}
	adviceChaos, err := fdet.ParseChaos(*chaos)
	if err != nil {
		badFlag("-chaos: %v", err)
	}
	adviceMode, err := native.ParseAdviceMode(*advice)
	if err != nil {
		badFlag("%v", err)
	}
	var tracer *obs.Tracer
	if *httpAddr != "" || *traceOut != "" {
		tracer = native.NewTracer(1 << 16)
	}
	latency := obs.NewHistogram()
	// The soak profile is the debug endpoint's heartbeat at -snapshot, its
	// line the /progress document; the soak records every beat's gauges.
	soak, start := new(obs.Soak), kv.Telemetry.Snapshot()
	stopHTTP, err := obs.ServeDebug("efd-kv", *httpAddr, *snapshot, obs.DebugOptions{
		Layers:     []*obs.Taxonomy{native.Telemetry, kv.Telemetry},
		Histograms: map[string]*obs.Histogram{"kv_open_loop_latency_ns": latency},
		Tracer:     tracer,
		Progress: func() any {
			d := kv.Telemetry.Snapshot().Delta(start).Map()
			return obs.WithProcess(map[string]any{"ops": latency.Snapshot().Count, "timeouts": d["kv_deadline_expired"]})
		},
		Soak: soak,
	})
	if err != nil {
		fail("-http: %v", err)
	}
	rep, err := core.KVStress(core.KVStressOptions{
		N: *n, Clients: *clients,
		Rate: *rate, Duration: *duration, RunBudget: *runBudget,
		CrashLeader: *crashLeader, CrashAt: fdet.Time(*crashAt), CrashStorm: *crashStorm,
		Chaos: adviceChaos, ClerkTimeout: *clerkTO,
		Stabilize: fdet.Time(*stabilize), Tick: *tick, Advice: adviceMode,
		Seed: *seed, PutFrac: *putFrac,
		Tracer: tracer, Latency: latency,
	})
	stopHTTP()
	if err != nil {
		fail("%v", err)
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fail("%v", err)
		}
	} else {
		fmt.Print(rep.Render())
	}
	if *traceOut != "" {
		if err := tracer.WriteChromeFile(*traceOut); err != nil {
			fail("-trace-out: %v", err)
		}
	}
	leakErr := soak.Check()
	if leakErr != nil {
		fmt.Fprintf(os.Stderr, "efd-kv: soak leak audit: %v\n", leakErr)
	}
	if rep.Failed() || leakErr != nil {
		os.Exit(1)
	}
}
