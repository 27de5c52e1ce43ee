// Command efd-run executes one EFD scenario from flags: a task, a detector,
// an environment and a scheduler, printing the run's outcome and the
// analyzer verdicts. The system is core.NewScenario's, run on the lockstep
// backend; a combination it rejects exits 2 with its error.
//
// Usage examples:
//
//	efd-run -task consensus -n 4 -seed 3
//	efd-run -task kset -k 2 -n 5 -crash 2 -pause-p1 50000
//	efd-run -task renaming -j 4 -k 2 -n 5
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"wfadvice/internal/core"
	"wfadvice/internal/ids"
	"wfadvice/internal/sim"
)

func main() {
	var (
		taskName = flag.String("task", "consensus", "task: "+strings.Join(core.ScenarioTasks(), " | "))
		n        = flag.Int("n", 4, "number of C-processes (= S-processes)")
		k        = flag.Int("k", 1, "agreement bound / concurrency level")
		j        = flag.Int("j", 0, "renaming participants (0 = n-1)")
		detector = flag.String("detector", "", "advice detector override: "+strings.Join(core.ScenarioDetectors(), " | ")+" (default: the task's)")
		crash    = flag.Int("crash", 0, "number of S-processes to crash")
		pauseP1  = flag.Int("pause-p1", 0, "pause p1 for this many steps (wait-freedom demo)")
		seed     = flag.Int64("seed", 1, "scheduler and history seed")
		maxSteps = flag.Int("max-steps", 3_000_000, "step budget")
	)
	flag.Parse()
	sc, err := core.NewScenario(core.ScenarioParams{
		Task: *taskName, N: *n, K: *k, J: *j, Crash: *crash, Detector: *detector,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "efd-run: %v\n", err)
		os.Exit(2)
	}

	rt, err := sim.New(sc.SimConfig(*seed, *maxSteps))
	if err != nil {
		fmt.Fprintf(os.Stderr, "efd-run: %v\n", err)
		os.Exit(1)
	}
	var sched sim.Scheduler = sim.NewRandom(*seed)
	if *pauseP1 > 0 {
		sched = &sim.PauseWindow{Proc: ids.C(0), From: 10, To: 10 + *pauseP1, Inner: sched}
	}
	res := rt.Run(&sim.StopWhenDecided{Inner: sched})

	fmt.Printf("task:      %s\n", sc.Task.Name())
	fmt.Printf("pattern:   %v\n", sc.Pattern)
	fmt.Printf("steps:     %d (%v)\n", res.Steps, res.Reason)
	fmt.Printf("inputs:    %v\n", res.Inputs)
	fmt.Printf("outputs:   %v\n", res.Outputs)
	fmt.Printf("decided:   %v\n", ok(sim.DecidedAll(res)))
	fmt.Printf("valid ∆:   %v\n", ok(sim.CheckTask(sc.Task, res)))
	fmt.Printf("conc:      %d\n", sim.MaxConcurrency(res))
	if err := sim.DecidedAll(res); err != nil {
		os.Exit(1)
	}
}

func ok(err error) string {
	if err != nil {
		return "NO — " + err.Error()
	}
	return "yes"
}
