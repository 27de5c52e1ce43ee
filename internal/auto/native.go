package auto

import (
	"fmt"

	"wfadvice/internal/sim"
)

// RegKey returns the shared-memory key of slot i's register in table.
func RegKey(table string, i int) string { return fmt.Sprintf("%s/%d", table, i) }

// RunOnEnv executes automaton a as C-process slot me of an n-slot table over
// the real runtime: the slot keys are bound once, then each step writes the
// automaton's register and builds the collect with one bound ReadMany into
// the handle's own buffer — on the sim backend exactly n individual reads in
// slot order (the step shape is pinned by the scripted-scheduler tests), on
// the native backend one prologue plus n atomic loads on the resolved cells
// with no per-step allocation. The buffer is safe to reuse because OnView
// only borrows its view for the duration of the call (the Automaton contract).
// When the automaton decides, the process decides and returns. This is the
// adapter that turns a restricted algorithm (§2.2) into a body for either
// backend.
func RunOnEnv(e sim.Ops, table string, n, me int, a Automaton) {
	keys := make([]string, n)
	for j := range keys {
		keys[j] = RegKey(table, j)
	}
	regs := e.Bind(keys)
	for {
		if d, ok := a.Decided(); ok {
			e.Decide(d)
			return
		}
		regs.Write(me, a.WriteValue())
		a.OnView(regs.ReadMany(nil))
	}
}

// Body returns a sim.Body running automaton factory(i, input) on the table.
func Body(table string, n int, factory func(i int, input sim.Value) Automaton) func(i int) sim.Body {
	return func(i int) sim.Body {
		return func(e sim.Ops) {
			RunOnEnv(e, table, n, i, factory(i, e.Input()))
		}
	}
}
