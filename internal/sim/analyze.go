package sim

import (
	"fmt"

	"wfadvice/internal/fdet"
	"wfadvice/internal/ids"
	"wfadvice/internal/task"
)

// This file contains trace analyzers: pure functions over a Result that
// check the run-level properties the paper quantifies over — satisfaction of
// a task (§2.2), k-concurrency (§2.2), fairness of the S-side schedule, and
// wait-freedom of the C-side.

// CheckTask verifies that the run satisfies task t: (I, O) ∈ ∆ and every
// C-process with ⊥ output took only finitely many steps. In a bounded run
// the latter cannot be checked directly, so callers combine CheckTask with
// CheckWaitFree over the suffix.
func CheckTask(t task.Task, res *Result) error { return task.Check(t, res.Inputs, res.Outputs) }

// MaxConcurrency returns the maximum, over all times, of the number of
// participating-but-undecided C-processes — the concurrency level of the
// run. A run is k-concurrent iff MaxConcurrency ≤ k. A process becomes
// active at its first step and inactive at its decide step; steps after a
// decision are null steps and do not re-activate it.
func MaxConcurrency(res *Result) int {
	active := make(map[int]bool)
	decided := make(map[int]bool)
	maxC := 0
	for _, e := range res.Trace {
		if !e.Proc.IsC() {
			continue
		}
		i := e.Proc.Index
		switch {
		case e.Kind == OpDecide:
			decided[i] = true
			delete(active, i)
		case !decided[i]:
			active[i] = true
		}
		if len(active) > maxC {
			maxC = len(active)
		}
	}
	return maxC
}

// StepsOf returns the steps (global step numbers) taken by p.
func StepsOf(res *Result, p ids.Proc) []int {
	var out []int
	for _, e := range res.Trace {
		if e.Proc == p {
			out = append(out, e.Step)
		}
	}
	return out
}

// ScheduledInWindow reports whether p took a step in [from, to).
func ScheduledInWindow(res *Result, p ids.Proc, from, to int) bool {
	for _, e := range res.Trace {
		if e.Proc == p && e.Step >= from && e.Step < to {
			return true
		}
	}
	return false
}

// CheckFair verifies the bounded-run analogue of a fair run (§2.1): every
// correct S-process takes at least one step in every window of the given
// size within the run, and at least one C-process keeps taking steps. It
// returns nil for runs that ended early because everyone returned.
func CheckFair(res *Result, p fdet.Pattern, window int) error {
	if res.Reason == ReasonAllDone {
		return nil
	}
	for _, q := range p.Correct() {
		last := -1
		for _, e := range res.Trace {
			if e.Proc == ids.S(q) {
				if last >= 0 && e.Step-last > window {
					return fmt.Errorf("q%d starved for %d steps", q+1, e.Step-last)
				}
				last = e.Step
			}
		}
		if last < 0 {
			return fmt.Errorf("q%d never scheduled", q+1)
		}
		if res.Steps-last > window {
			return fmt.Errorf("q%d starved at the end of the run", q+1)
		}
	}
	return nil
}

// CheckWaitFree verifies the wait-freedom obligation on a bounded run: every
// C-process that was still scheduled during the final suffix of the given
// length must have decided. A C-process that stopped being scheduled earlier
// is exempt — in EFD a computation process that stops taking steps owes
// nothing.
func CheckWaitFree(res *Result, suffix int) error {
	from := res.Steps - suffix
	if from < 0 {
		from = 0
	}
	for i := range res.Inputs {
		if res.Inputs[i] == nil || res.Outputs[i] != nil {
			continue
		}
		if ScheduledInWindow(res, ids.C(i), from, res.Steps) {
			return fmt.Errorf("p%d took steps in the final %d-step window but never decided", i+1, suffix)
		}
	}
	return nil
}

// DecidedAll reports an error unless every participating C-process decided.
func DecidedAll(res *Result) error {
	for i := range res.Inputs {
		if res.Inputs[i] != nil && res.Outputs[i] == nil {
			return fmt.Errorf("p%d participated but did not decide (run ended: %v after %d steps)", i+1, res.Reason, res.Steps)
		}
	}
	return nil
}

// Check judges a finished run the way native.Check judges a native one: ∆
// first, then that every participating C-process decided.
func Check(t task.Task, res *Result) error {
	if err := CheckTask(t, res); err != nil {
		return err
	}
	return DecidedAll(res)
}
