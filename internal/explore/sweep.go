package explore

import (
	"fmt"
	"sync"

	"wfadvice/internal/par"
	"wfadvice/internal/sim"
)

// SweepOutcome is what a seed sweep found. Runs merge in seed order, so for a
// given builder and seed range every field is the same at any worker count.
type SweepOutcome struct {
	// Tried is the number of seeds run; Hits counts the failing ones.
	Tried int `json:"tried"`
	Hits  int `json:"hits"`
	// Seed is the lowest failing seed, Err its failure and Steps the length
	// of its run (meaningful when Hits > 0).
	Seed  int64  `json:"seed"`
	Err   string `json:"err,omitempty"`
	Steps int    `json:"steps"`
	// Trace is the lowest failing seed's run as recorded, nil if it panicked.
	Trace *Trace `json:"-"`
}

// Failure is nil when every seed passed, and otherwise names the lowest
// failing seed and its failure.
func (o *SweepOutcome) Failure() error {
	if o.Hits == 0 {
		return nil
	}
	return fmt.Errorf("seed %d failed (%d of %d seeds): %s", o.Seed, o.Hits, o.Tried, o.Err)
}

// Sweep is the seed-sweep driver. For every seed in [from, from+seeds) it
// builds that seed's system and scheduler, runs the system under the
// scheduler with a budget of maxSteps steps and judges the run with the
// spec's Check. A run that panics (a body touching a released register, say)
// fails its seed, and the sweep goes on: every seed runs, since the hit rate
// is itself a result. The seeds run on a pool of workers goroutines (0 means
// GOMAXPROCS), so build must hand each seed a system that shares no mutable
// state with the others.
func Sweep(build func(seed int64) (Spec, sim.Scheduler), maxSteps int, from int64, seeds, workers int) *SweepOutcome {
	out := &SweepOutcome{Tried: seeds}
	var mu sync.Mutex // guards out
	par.Each(seeds, workers, func(i int) {
		seed := from + int64(i)
		steps, trace, err := sweepRun(build, seed, maxSteps)
		if err == nil {
			return
		}
		mu.Lock()
		defer mu.Unlock()
		if out.Hits == 0 || seed < out.Seed {
			out.Seed, out.Err, out.Steps, out.Trace = seed, err.Error(), steps, trace
		}
		out.Hits++
	})
	return out
}

// Uniform is the sweep of one system under the uniform random scheduler,
// seeded with the seed: the stochastic scheduler of "Are Lock-Free
// Concurrent Algorithms Practically Wait-Free?", the random baseline.
func Uniform(spec Spec) func(seed int64) (Spec, sim.Scheduler) {
	return func(seed int64) (Spec, sim.Scheduler) { return spec, sim.NewRandom(seed) }
}

// sweepRun builds, runs and judges one seed, and records its run if it
// fails. A panic anywhere in it is the seed's failure, with no run to record.
func sweepRun(build func(int64) (Spec, sim.Scheduler), seed int64, maxSteps int) (steps int, trace *Trace, err error) {
	defer func() {
		if x := recover(); x != nil {
			steps, trace, err = 0, nil, fmt.Errorf("panic: %v", x)
		}
	}()
	spec, sched := build(seed)
	rt, err := spec.New(maxSteps)
	if err != nil {
		return 0, nil, err
	}
	res := rt.Run(sched)
	if err := spec.Check(res); err != nil {
		return res.Steps, recordTrace(spec, res, err), err
	}
	return 0, nil, nil
}
