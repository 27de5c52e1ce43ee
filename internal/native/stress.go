package native

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"wfadvice/internal/obs"
	"wfadvice/internal/task"
)

// This file is the stress harness behind cmd/efd-stress, experiment E16 and
// the native benchmarks: a pool of workers runs back-to-back native
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
	// (0 = unthrottled).
	Rate float64
	// Seed is the root seed; instance r derives seed Seed*1_000_003 + r.
	Seed int64
	// Pin locks every process goroutine of every instance to its own OS
	// thread (native.Config.Pin): the kernel scheduler arbitrates between
	// the processes instead of the Go scheduler, so spin-heavy siblings
	// cannot monopolize a GOMAXPROCS slot against a deciding leader — the
	// ROADMAP NUMA/core-pinning knob, `-pin` on efd-stress. Combine with
	// the GOMAXPROCS-aware default worker packing: with Pin set, the
	// default pool never runs more pinned threads than ~GOMAXPROCS rounded
	// up to one whole instance.
	Pin bool
	// SnapshotEvery enables the soak profile: every such interval the
	// harness appends a SoakSnapshot — cumulative runs/ops, interval
	// ops/sec, live goroutine count and heap stats — to the report, and
	// calls OnSnapshot if set. Long-duration runs (`-duration 10m
	// -snapshot 30s`) use the series to spot slow goroutine or heap leaks
	// that a 2s smoke cannot (StressReport.LeakCheck audits it post hoc).
	SnapshotEvery time.Duration
	// OnSnapshot, if non-nil, observes each snapshot as it is taken (the
	// efd-stress live progress line).
	OnSnapshot func(SoakSnapshot)
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

// SoakSnapshot is one periodic observation of a long stress run: cumulative
// progress, the interval's throughput, and the process-level resource gauges
// whose growth across snapshots is the leak signal.
type SoakSnapshot struct {
	Elapsed time.Duration `json:"elapsed_ns"`
	Runs    int           `json:"runs"`
	Ops     int64         `json:"ops"`
	// IntervalOpsPerSec is the throughput since the previous snapshot (the
	// cumulative rate hides late-run collapses).
	IntervalOpsPerSec float64 `json:"interval_ops_per_sec"`
	Goroutines        int     `json:"goroutines"`
	HeapAlloc         uint64  `json:"heap_alloc"`
	HeapObjects       uint64  `json:"heap_objects"`
	// CounterDelta holds the native counters that moved during this
	// snapshot's interval (zeros omitted) — the live "is advice still
	// publishing, are parked pollers still waking" signal on the progress
	// line.
	CounterDelta map[string]int64 `json:"counter_delta,omitempty"`
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

// StressReport is the aggregate outcome of a stress run.
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
	Errors    []string     `json:"errors,omitempty"` // first few checker messages
	// Snapshots is the soak series (StressOptions.SnapshotEvery > 0 only).
	Snapshots []SoakSnapshot `json:"snapshots,omitempty"`
	// Counters holds the native counter deltas attributable to this run
	// (process-wide snapshot at end minus start; zeros omitted).
	Counters map[string]int64 `json:"counters,omitempty"`
	// Histogram is the full decision-latency bucket distribution backing
	// Latency, for offline re-aggregation. Omitted when empty.
	Histogram *obs.HistSnapshot `json:"histogram,omitempty"`
}

// LeakCheck audits a soak series for monotone resource growth: it compares
// the low-water marks of the second half of the series and of the first,
// allowing slack for scheduler and GC noise (goroutines: a few stragglers
// from instances still winding down; heap: transient live sets between GC
// cycles). A snapshot lands anywhere between "every worker is between two
// instances" and "every worker is mid-instance", a whole pool of process
// goroutines apart, so two single snapshots say little; a leak raises the
// floor, and the floor is what the halves are compared on. It reports nil
// for runs without a soak series. The thresholds are deliberately generous —
// this is a leak detector for 10-minute soaks, not a memory benchmark.
func (r *StressReport) LeakCheck() error {
	n := len(r.Snapshots)
	if n < 2 {
		return nil
	}
	g0, h0 := lowWater(r.Snapshots[:n/2])
	g1, h1 := lowWater(r.Snapshots[n/2:])
	const goroutineSlack = 16
	if g1 > g0+goroutineSlack {
		return fmt.Errorf("native: goroutine low-water mark grew %d → %d from the first half of the soak to the second (> %d slack): leaked instance or advice-service goroutines",
			g0, g1, goroutineSlack)
	}
	const heapSlack = 64 << 20
	if h1 > h0+heapSlack {
		return fmt.Errorf("native: heap low-water mark grew %d → %d bytes from the first half of the soak to the second (> %d slack): retained garbage",
			h0, h1, heapSlack)
	}
	return nil
}

// lowWater is the floor of a stretch of a soak series: the fewest goroutines
// and the smallest live heap any of its snapshots saw.
func lowWater(ss []SoakSnapshot) (goroutines int, heap uint64) {
	goroutines, heap = ss[0].Goroutines, ss[0].HeapAlloc
	for _, s := range ss[1:] {
		goroutines, heap = min(goroutines, s.Goroutines), min(heap, s.HeapAlloc)
	}
	return goroutines, heap
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
	// The default pool packs instances GOMAXPROCS-aware: as many as fit
	// whole, at least one, sized by instance 0's config, which its worker
	// then runs. The same packing serves pinned runs: one pinned OS thread
	// per process goroutine keeps the pinned thread count within about one
	// instance of GOMAXPROCS instead of drowning the kernel scheduler.
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
	// Soak monitor: sample progress and resource gauges on a fixed cadence
	// until the workers drain. runtime.ReadMemStats stops the world briefly,
	// which at soak cadences (tens of seconds) is negligible.
	monitorDone := make(chan struct{})
	var monitorWG sync.WaitGroup
	if opt.SnapshotEvery > 0 {
		monitorWG.Add(1)
		go func() {
			defer monitorWG.Done()
			ticker := time.NewTicker(opt.SnapshotEvery)
			defer ticker.Stop()
			var lastOps int64
			var lastAt time.Duration
			lastCounters := startCounters
			for {
				select {
				case <-monitorDone:
					return
				case <-ticker.C:
				}
				var ms runtime.MemStats
				runtime.ReadMemStats(&ms)
				now := Telemetry.Snapshot()
				snap := SoakSnapshot{
					Elapsed:      time.Since(start),
					Goroutines:   runtime.NumGoroutine(),
					HeapAlloc:    ms.HeapAlloc,
					HeapObjects:  ms.HeapObjects,
					CounterDelta: now.Delta(lastCounters).Map(),
				}
				lastCounters = now
				mu.Lock()
				snap.Runs, snap.Ops = rep.Runs, rep.Ops
				if dt := (snap.Elapsed - lastAt).Seconds(); dt > 0 {
					snap.IntervalOpsPerSec = float64(snap.Ops-lastOps) / dt
				}
				lastOps, lastAt = snap.Ops, snap.Elapsed
				rep.Snapshots = append(rep.Snapshots, snap)
				mu.Unlock()
				if opt.OnSnapshot != nil {
					opt.OnSnapshot(snap)
				}
			}
		}()
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
				if r == 0 && first != nil {
					cfg = *first
				} else {
					cfg, err = mk(opt.Seed*1_000_003 + r)
				}
				if err == nil && len(cfg.Inputs) != cfg.NC {
					err = fmt.Errorf("native: scenario produced %d inputs for %d C-processes", len(cfg.Inputs), cfg.NC)
				}
				if opt.Pin {
					cfg.Pin = true
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
				verr := CheckDelta(t, res)
				derr := CheckDecided(res)
				mu.Lock()
				rep.Runs++
				rep.Ops += res.Ops
				rep.Decisions += len(res.Decisions)
				rep.Crashes += len(res.Crashed)
				rep.Judge(verr, derr)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	close(monitorDone)
	monitorWG.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	rep.Elapsed = time.Since(start)
	rep.Summarize(hist.Snapshot(), startCounters)
	return rep, nil
}

// Judge accounts one checked run: delta is its CheckDelta verdict, decided
// its CheckDecided verdict. ∆ comes first and wait-freedom second — the task
// validates whatever did decide even when some process was cut off — so a
// safety violation is never masked by a liveness miss. Only the first few
// messages are kept.
func (r *StressReport) Judge(delta, decided error) {
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
		r.Errors = append(r.Errors, err.Error())
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
