package native

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"wfadvice/internal/obs"
	"wfadvice/internal/task"
)

// This file is the stress harness behind cmd/efd-stress and the native
// stress tests: a pool of workers runs back-to-back native
// instances of one scenario until a wall-clock deadline, every instance is
// checked post hoc, and the aggregate is reported as throughput, decision
// latency percentiles (from an online log-bucketed histogram — bounded
// memory no matter how long the run, see obs.Histogram) and checker
// verdicts, plus the native counter deltas the run generated.

// StressOptions configures a stress run.
type StressOptions struct {
	// Duration is the total wall-clock budget; the harness stops starting
	// new instances once it elapses.
	Duration time.Duration
	// RunBudget bounds one instance (0 = 5s). An instance cut off with
	// undecided C-processes counts in Undecided.
	RunBudget time.Duration
	// Workers is the number of concurrent instances; 0 sizes the pool as
	// max(1, GOMAXPROCS / (NC+NS)), reading the goroutine count of one
	// instance off the config mk builds for instance 0, so the machine is
	// loaded without drowning in oversubscription.
	Workers int
	// Rate throttles instance starts per second across all workers
	// (0 = unthrottled); NaN, infinite and negative rates are errors.
	Rate float64
	// Seed is the root seed; instance r derives seed Seed*1_000_003 + r.
	Seed int64
	// Tracer, if non-nil, records every instance's decision lifecycle into
	// the shared ring (runs are distinguished by RunID = the instance
	// counter). Nil traces nothing at zero cost.
	Tracer *obs.Tracer
	// Latency, if non-nil, is the histogram decision latencies are recorded
	// into; the harness allocates its own when nil. Passing one in lets the
	// caller (the efd-stress debug endpoint) observe percentiles live while
	// the run is still going.
	Latency *obs.Histogram
}

func (o StressOptions) runBudget() time.Duration {
	if o.RunBudget > 0 {
		return o.RunBudget
	}
	return 5 * time.Second
}

// LatencyStats summarizes decision latencies. The percentiles come from the
// log-bucketed histogram, so each is exact to within its bucket's ±12.5%
// relative resolution; Max and Samples are exact.
type LatencyStats struct {
	P50     time.Duration `json:"p50"`
	P90     time.Duration `json:"p90"`
	P99     time.Duration `json:"p99"`
	P999    time.Duration `json:"p999"`
	Max     time.Duration `json:"max"`
	Samples int           `json:"samples"`
}

// StressReport is the aggregate outcome of a stress run. Ops counts
// client-visible operations and OpsPerSec their rate: a C-process decision
// each in a one-shot run, a completed clerk operation in a KV run. Raw
// register operations are not the currency: spin-reads inflate them.
type StressReport struct {
	Scenario  string        `json:"scenario"`
	Workers   int           `json:"workers"`
	Runs      int           `json:"runs"`
	Decisions int           `json:"decisions"`
	Ops       int64         `json:"ops"`
	Elapsed   time.Duration `json:"elapsed_ns"`
	OpsPerSec float64       `json:"ops_per_sec"`
	// Violations counts instances whose decisions broke the task's ∆ — an
	// algorithm safety bug. Undecided counts instances cut off before every
	// C-process decided — a liveness budget miss.
	Violations int `json:"violations"`
	Undecided  int `json:"undecided"`
	Crashes    int `json:"crashes"` // injected S-process kills observed
	// Timeouts counts client operations that expired their per-op deadline
	// (KV runs with a clerk timeout only): graceful degradation made
	// visible, not a checker failure — the linearizability check accounts
	// for every timed-out op.
	Timeouts int64 `json:"timeouts,omitempty"`
	// Registers is the population of the register table when the run ended
	// (KV runs only: one long-lived system, whose table is bounded by what
	// its replicas release — see the reg_released counter).
	Registers int          `json:"registers,omitempty"`
	Latency   LatencyStats `json:"latency"`
	Errors    []string     `json:"errors,omitempty"` // first few checker messages, each led by its instance and seed
	// Counters holds the native counter deltas attributable to this run
	// (process-wide snapshot at end minus start; zeros omitted).
	Counters map[string]int64 `json:"counters,omitempty"`
	// Histogram is the full decision-latency bucket distribution backing
	// Latency, for offline re-aggregation. Omitted when empty.
	Histogram *obs.HistSnapshot `json:"histogram,omitempty"`
}

// Render formats the report as aligned text.
func (r *StressReport) Render() string {
	verdict := "OK"
	switch {
	case r.Runs == 0:
		verdict = "FAIL (no instance ran)"
	case r.Failed():
		verdict = fmt.Sprintf("FAIL (%d violations, %d undecided)", r.Violations, r.Undecided)
	}
	s := fmt.Sprintf("scenario:   %s\nworkers:    %d\nruns:       %d\ndecisions:  %d\nops:        %d\nops/sec:    %.0f\nlatency:    p50=%v p90=%v p99=%v p999=%v max=%v (%d samples)\ncrashes:    %d\nchecker:    %s\n",
		r.Scenario, r.Workers, r.Runs, r.Decisions, r.Ops, r.OpsPerSec,
		r.Latency.P50, r.Latency.P90, r.Latency.P99, r.Latency.P999, r.Latency.Max, r.Latency.Samples,
		r.Crashes, verdict)
	if r.Timeouts > 0 {
		s += fmt.Sprintf("timeouts:   %d\n", r.Timeouts)
	}
	if r.Registers > 0 {
		s += fmt.Sprintf("registers:  %d held at the end, %d released, %d binds on a recycled array\n",
			r.Registers, r.Counters["reg_released"], r.Counters["cell_array_reused"])
	}
	for _, e := range r.Errors {
		s += "error:      " + e + "\n"
	}
	return s
}

// Failed reports whether the run failed: no instance ran, or the checker
// rejected one. A run that checked nothing passes nothing.
func (r *StressReport) Failed() bool { return r.Runs == 0 || r.Violations > 0 || r.Undecided > 0 }

// Stress hammers one scenario: mk builds a fresh Config per instance from a
// derived seed (fresh bodies, seeded history), each worker of the pool runs
// its instances back to back on one Runtime it re-arms with Reset — registers
// empty, advice from tick 0, see Runtime.Reset — until opt.Duration elapses,
// and every finished instance is checked against t.
func Stress(name string, t task.Task, mk func(seed int64) (Config, error), opt StressOptions) (*StressReport, error) {
	if opt.Duration <= 0 {
		return nil, fmt.Errorf("native stress: need a positive duration, got %v", opt.Duration)
	}
	if !(opt.Rate >= 0) || math.IsInf(opt.Rate, 1) {
		return nil, fmt.Errorf("native stress: need a finite, non-negative rate, got %v", opt.Rate)
	}
	// Zero means the default; a negative count or budget would silently run
	// it too, so it is refused.
	if opt.Workers < 0 || opt.RunBudget < 0 {
		return nil, fmt.Errorf("native stress: need non-negative workers and run budget, got workers=%d run-budget=%v", opt.Workers, opt.RunBudget)
	}
	// The default pool packs instances GOMAXPROCS-aware: as many as fit
	// whole, at least one, sized by instance 0's config, which its worker
	// then runs.
	workers, first := opt.Workers, (*Config)(nil)
	if workers <= 0 {
		cfg, err := mk(opt.Seed * 1_000_003)
		if err != nil {
			return nil, err
		}
		workers, first = max(1, runtime.GOMAXPROCS(0)/max(1, cfg.NC+cfg.NS)), &cfg
	}
	budget := opt.runBudget()
	rep := &StressReport{Scenario: name, Workers: workers}
	hist := opt.Latency
	if hist == nil {
		hist = obs.NewHistogram()
	}
	startCounters := Telemetry.Snapshot()
	var (
		mu   sync.Mutex
		next int64 // instance counter, guarded by mu
	)
	var firstErr error
	start := time.Now()
	deadline := start.Add(opt.Duration)
	var interval time.Duration
	if opt.Rate > 0 {
		interval = time.Duration(float64(time.Second) / opt.Rate)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// One runtime per worker, re-armed for every instance: what an
			// instance allocates is its protocol's, not its plumbing's.
			rt := new(Runtime)
			for {
				mu.Lock()
				r := next
				next++
				stop := firstErr != nil
				mu.Unlock()
				if stop || time.Now().After(deadline) {
					return
				}
				if interval > 0 {
					// Pace starts against the global schedule: instance r is
					// due at start + r*interval. An instance due after the
					// deadline is never started — the throttle must not
					// stretch the run past -duration.
					due := start.Add(time.Duration(r) * interval)
					if due.After(deadline) {
						return
					}
					if d := time.Until(due); d > 0 {
						time.Sleep(d)
					}
				}
				var cfg Config
				var err error
				seed := opt.Seed*1_000_003 + r
				if r == 0 && first != nil {
					cfg = *first
				} else {
					cfg, err = mk(seed)
				}
				if err == nil && len(cfg.Inputs) != cfg.NC {
					err = fmt.Errorf("native: scenario produced %d inputs for %d C-processes", len(cfg.Inputs), cfg.NC)
				}
				cfg.Tracer = opt.Tracer
				cfg.RunID = r
				if err == nil {
					err = rt.Reset(cfg)
				}
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					return
				}
				res := rt.Run(budget)
				for _, l := range res.Latency {
					hist.Observe(int64(l))
				}
				verr := task.Check(t, res.Inputs, res.Outputs)
				derr := CheckDecided(res)
				mu.Lock()
				rep.Runs++
				rep.Decisions += res.Outputs.Count()
				rep.Crashes += len(res.Crashed)
				rep.Judge(r, seed, verr, derr)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	rep.Elapsed = time.Since(start)
	rep.Ops = int64(rep.Decisions)
	rep.Summarize(hist.Snapshot(), startCounters)
	return rep, nil
}

// Judge accounts one checked run, the report's instance number instance,
// built from seed: delta is its task.Check verdict, decided its
// CheckDecided verdict. ∆ comes first and wait-freedom second — the task
// validates whatever did decide even when some process was cut off — so a
// safety violation is never masked by a liveness miss. Only the first few
// messages are kept, each led by the instance and the seed that rebuild
// the run.
func (r *StressReport) Judge(instance, seed int64, delta, decided error) {
	err := delta
	switch {
	case delta != nil:
		r.Violations++
	case decided != nil:
		r.Undecided++
		err = decided
	default:
		return
	}
	if len(r.Errors) < 5 {
		r.Errors = append(r.Errors, fmt.Sprintf("instance %d (seed %d): %v", instance, seed, err))
	}
}

// Summarize fills the fields derived at the end of a run from Ops and
// Elapsed, which the caller has set: throughput, the latency percentiles
// and bucket distribution of hs, and the native counter delta since start.
func (r *StressReport) Summarize(hs *obs.HistSnapshot, start obs.Snapshot) {
	if s := r.Elapsed.Seconds(); s > 0 {
		r.OpsPerSec = float64(r.Ops) / s
	}
	r.Latency = summarize(hs)
	if hs.Count > 0 {
		r.Histogram = hs
	}
	r.Counters = Telemetry.Snapshot().Delta(start).Map()
}

// summarize derives the latency percentiles from a histogram snapshot.
func summarize(hs *obs.HistSnapshot) LatencyStats {
	st := LatencyStats{Samples: int(hs.Count)}
	if hs.Count == 0 {
		return st
	}
	st.P50 = time.Duration(hs.Quantile(0.50))
	st.P90 = time.Duration(hs.Quantile(0.90))
	st.P99 = time.Duration(hs.Quantile(0.99))
	st.P999 = time.Duration(hs.Quantile(0.999))
	st.Max = time.Duration(hs.Max)
	return st
}
