package native

import (
	"fmt"

	"wfadvice/internal/task"
)

// This file is the post-hoc decision-task checker. Native runs have no
// lockstep analyzer — there is no global step trace to replay — so validity
// is judged from what a run leaves behind: the participating input vector
// and the collected decision vector.

// CheckDecided verifies the wait-freedom obligation. In the EFD model
// C-processes never crash, and on the native backend a spawned C-process
// keeps taking steps until it decides or the run is cut off — so every
// participating C-process must have decided by the end of the run. An
// undecided participant means the algorithm failed to be wait-free within
// the run's budget.
func CheckDecided(res *Result) error {
	for i := range res.Inputs {
		if res.Inputs[i] != nil && res.Outputs[i] == nil {
			return fmt.Errorf("wait-freedom: p%d kept taking steps but never decided (run ended: %v after %v, %d ops)",
				i+1, res.Reason, res.Elapsed.Round(0), res.Ops)
		}
	}
	return nil
}

// Check is the full post-hoc checker: ∆ (task.Check, the sim backend's
// check too) plus the wait-freedom obligation.
func Check(t task.Task, res *Result) error {
	if err := task.Check(t, res.Inputs, res.Outputs); err != nil {
		return err
	}
	return CheckDecided(res)
}
