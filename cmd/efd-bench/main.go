// Command efd-bench regenerates every experiment table in EXPERIMENTS.md
// (E1–E17), each validating one proposition, theorem or algorithm figure of
// "Wait-Freedom with Advice".
//
// Trials run on a worker pool and are seeded per (experiment, cell, seed)
// triple, so for a fixed -seed the output is byte-identical for every
// -parallel value (absent -timeout, whose wall-clock cutoff may fire
// differently under different load).
//
// Usage:
//
//	efd-bench [-only E5,E7] [-list] [-parallel N] [-seed S] [-trials M]
//	          [-timeout D] [-short] [-json] [-http ADDR] [-progress D]
//
// -http serves the live debug endpoint while the regeneration runs:
// /metrics (Prometheus text: the engine and sim counter taxonomies, the
// per-cell wall-time histogram, worker-utilization gauges), /progress
// (cells done/planned and an ETA as JSON), /debug/pprof/* and
// /debug/vars. -progress prints that same document to stderr every
// interval as one heartbeat line — cells done and planned, active workers,
// ETA — followed by the interval's engine counter rates (exp_cell/s, …),
// in the same tagged k=v shape as `efd-stress -snapshot`. Neither flag
// changes trial execution or the tables: telemetry is strictly outside
// exp.Table, and the heartbeat goes to stderr so -json stdout stays pure.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"wfadvice/internal/exp"
	"wfadvice/internal/obs"
	"wfadvice/internal/sim"
)

// expReport is the -json record for one experiment.
type expReport struct {
	Name string `json:"name"`
	*exp.Table
	ElapsedMS float64 `json:"elapsed_ms"`
}

// report is the top-level -json document.
type report struct {
	Seed        int64       `json:"seed"`
	Parallelism int         `json:"parallelism"`
	Trials      int         `json:"trials"`
	Short       bool        `json:"short"`
	Experiments []expReport `json:"experiments"`
	Failures    int         `json:"failures"`
	WallMS      float64     `json:"wall_ms"`
}

func main() {
	var (
		only     = flag.String("only", "", "comma-separated experiment ids to run (default: all)")
		list     = flag.Bool("list", false, "list experiments and exit")
		parallel = flag.Int("parallel", 0, "trial workers per experiment (0 = GOMAXPROCS)")
		seed     = flag.Int64("seed", exp.DefaultSeed, "root seed; every trial derives its own from (experiment, cell, seed)")
		trials   = flag.Int("trials", 1, "trial multiplier for the sweep experiments")
		timeout  = flag.Duration("timeout", 0, "per-trial timeout (0 = none); a timed-out trial is a failure row")
		short    = flag.Bool("short", false, "use the reduced -short experiment grids")
		jsonOut  = flag.Bool("json", false, "emit tables as JSON on stdout instead of text")
		skipMeas = flag.Bool("skip-measured", false, "skip experiments whose rows contain wall-clock measurements (for byte-level determinism checks)")
		httpAddr = flag.String("http", "", "serve the live debug endpoint (/metrics, /progress, /debug/pprof) on this address for the duration of the run")
		progress = flag.Duration("progress", 0, "emit a progress heartbeat to stderr every interval (0 = off)")
	)
	flag.Parse()

	experiments, err := exp.Select(*only)
	if err != nil {
		fmt.Fprintf(os.Stderr, "efd-bench: %v\n", err)
		os.Exit(2)
	}
	if *skipMeas {
		kept := experiments[:0]
		for _, x := range experiments {
			if !x.Measured {
				kept = append(kept, x)
			}
		}
		experiments = kept
		if len(experiments) == 0 {
			fmt.Fprintln(os.Stderr, "efd-bench: -skip-measured filtered out every selected experiment")
			os.Exit(2)
		}
	}
	if *list {
		for _, x := range experiments {
			measured := ""
			if x.Measured {
				measured = "  [measured]"
			}
			fmt.Printf("%-4s %s%s\n", x.ID, x.Name, measured)
		}
		return
	}

	eng := exp.NewEngine(exp.Options{
		Parallelism: *parallel,
		Seed:        *seed,
		TrialMult:   *trials,
		Timeout:     *timeout,
		Short:       *short,
	})
	workers := *parallel
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	// planned is the ETA denominator: the cells the selected experiments
	// will generate under these options, counted up front.
	planned := exp.PlanCells(experiments, eng.Options())
	benchStart := time.Now()
	stopHTTP, err := obs.ServeDebug("efd-bench", *httpAddr, *progress, obs.DebugOptions{
		Layers:   []*obs.Taxonomy{exp.Telemetry, sim.Telemetry},
		Progress: func() any { return progressDoc(benchStart, planned) },
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "efd-bench: -http: %v\n", err)
		os.Exit(2)
	}
	defer stopHTTP()
	rep := report{Seed: *seed, Parallelism: workers, Trials: *trials, Short: *short}
	var slowest expReport
	wallStart := time.Now()
	for _, x := range experiments {
		start := time.Now()
		tbl := eng.Run(x)
		elapsed := time.Since(start)
		er := expReport{Name: x.Name, Table: tbl, ElapsedMS: float64(elapsed.Microseconds()) / 1000}
		rep.Experiments = append(rep.Experiments, er)
		rep.Failures += tbl.Failures
		if slowest.Table == nil || er.ElapsedMS > slowest.ElapsedMS {
			slowest = er
		}
		if !*jsonOut {
			fmt.Print(tbl.Render())
			fmt.Printf("   elapsed: %.1fs\n\n", elapsed.Seconds())
		}
	}
	rep.WallMS = float64(time.Since(wallStart).Microseconds()) / 1000

	if *jsonOut {
		encoder := json.NewEncoder(os.Stdout)
		encoder.SetIndent("", "  ")
		if err := encoder.Encode(rep); err != nil {
			fmt.Fprintf(os.Stderr, "efd-bench: encoding report: %v\n", err)
			os.Exit(2)
		}
	}

	// One greppable summary line aggregating wall time and failures; on
	// stderr under -json so stdout stays pure JSON.
	out := os.Stdout
	if *jsonOut {
		out = os.Stderr
	}
	slowestID := "-"
	if slowest.Table != nil {
		slowestID = fmt.Sprintf("%s:%.2fs", slowest.ID, slowest.ElapsedMS/1000)
	}
	fmt.Fprintf(out, "efd-bench: experiments=%d failures=%d wall=%.2fs slowest=%s seed=%d parallel=%d\n",
		len(rep.Experiments), rep.Failures, rep.WallMS/1000, slowestID, *seed, workers)
	if rep.Failures > 0 {
		os.Exit(1)
	}
}

// eta estimates the time left from overall progress; zero when done or
// not yet computable.
func eta(done, planned int64, elapsed time.Duration) time.Duration {
	if done <= 0 || planned <= done {
		return 0
	}
	rate := float64(done) / elapsed.Seconds()
	if rate <= 0 {
		return 0
	}
	return time.Duration(float64(planned-done) / rate * float64(time.Second))
}

// progressDoc assembles the /progress JSON payload: cell progress, the
// overall ETA, and the engine gauges.
func progressDoc(start time.Time, planned int) any {
	m := exp.Telemetry.Snapshot().Map()
	g := exp.Telemetry.Gauges()
	elapsed := time.Since(start)
	done := m["exp_cell"]
	return map[string]any{
		"elapsed_s":        elapsed.Seconds(),
		"cells_done":       done,
		"cells_planned":    planned,
		"cell_failures":    m["exp_cell_fail"],
		"cell_timeouts":    m["exp_cell_timeout"],
		"experiments_done": m["exp_experiment"],
		"workers_active":   g["exp_workers_active"],
		"eta_s":            eta(done, int64(planned), elapsed).Seconds(),
	}
}
