// Package core implements the paper's primary contribution: solving tasks in
// the external-failure-detection (EFD) model. It contains
//
//   - the Proposition 2 S-helper algorithm (n-set agreement from n
//     S-processes with a trivial detector),
//   - the direct vector-Ωk agreement solver (k parallel leader-based
//     consensus instances driven by S-processes; the k = 1 case is the
//     consensus-with-Ω quickstart),
//   - the §2.3 separation witness (classical ≠ EFD solvability),
//   - the generic Theorem 9 solver: a replicated simulation of any
//     k-concurrent restricted algorithm, driven through per-step consensus
//     with vector-Ωk leader hints and an exact k-concurrency admission gate
//     (machine.go), whose Figure 2 / Theorem 14 special case is the "lanes"
//     mode,
//   - the Figure 1 / Theorem 8 extraction of ¬Ωk from any detector solving a
//     task that is not (k+1)-concurrently solvable (extract.go),
//   - the Theorem 7 puzzle pipeline and the Theorem 10 hierarchy classifier.
package core

import (
	"fmt"

	"wfadvice/internal/sim"
)

// InKey is the register in which C-process i publishes its task input; the
// first step of every C-process writes it (§2.2).
func InKey(i int) string { return fmt.Sprintf("in/%d", i) }

// SHelperConfig configures the Proposition 2 construction: with n
// S-processes and no failure-detection at all, the system solves (Π^C, n)-set
// agreement in every environment — each S-process copies the first input it
// sees into its own slot of a shared array, and each C-process returns the
// first copied value it finds.
type SHelperConfig struct {
	NC, NS int
}

// shelperVKeys returns the helper-slot key table V/0..V/ns-1.
func shelperVKeys(ns int) []string {
	keys := make([]string, ns)
	for q := range keys {
		keys[q] = fmt.Sprintf("V/%d", q)
	}
	return keys
}

// SHelperCBody returns the C-process body: publish the input, then poll the
// helper slots round-robin on a handle bound once. Like the direct solver's,
// these bodies build their key tables when the factory is called.
func (c SHelperConfig) SHelperCBody(i int) sim.Body {
	in, vKeys := []string{InKey(i)}, shelperVKeys(c.NS)
	return func(e sim.Ops) {
		e.Bind(in).Write(0, e.Input())
		vs := e.Bind(vKeys)
		for j := 0; ; j = (j + 1) % c.NS {
			if v := vs.Read(j); v != nil {
				e.Decide(v)
				return
			}
		}
	}
}

// SHelperSBody returns the S-process body: poll the input registers on a
// bound handle until at least one C-process writes its input, then publish
// that value in this helper's slot.
func (c SHelperConfig) SHelperSBody(q int) sim.Body {
	inKeys, slotKey := directInKeys(c.NC), shelperVKeys(c.NS)[q:q+1]
	return func(e sim.Ops) {
		ins := e.Bind(inKeys)
		slot := e.Bind(slotKey)
		for i := 0; ; i = (i + 1) % c.NC {
			if v := ins.Read(i); v != nil {
				slot.Write(0, v)
				return
			}
		}
	}
}
