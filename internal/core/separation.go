package core

import (
	"wfadvice/internal/sim"
)

// This file implements the §2.3 separation witness. The FirstAlive detector
// (q1 if q1 is correct, q2 otherwise) classically solves ({p1,p2},1)-
// agreement in E_2: in personified runs p_i crashes exactly when q_i does,
// so "q1 correct" implies p1 keeps stepping and will publish its input,
// which everyone then adopts. The same algorithm does not EFD-solve the
// task: in a fair run where q1 is correct but the computation process p1
// simply stops taking steps (which EFD permits — C-processes do not crash),
// p2 waits forever for p1's input. Proposition 3's one-way implication is
// therefore strict.

const faKey = "fa" // register holding the latest FirstAlive output

// SeparationCBody is the C-process body of the classical algorithm: publish
// the input, read the detector relay, and adopt the input of the process the
// detector points at — all on one handle binding the relay register (slot 0)
// and the input registers (slot 1+j).
func SeparationCBody(i int) sim.Body {
	return func(e sim.Ops) {
		regs := e.Bind(append([]string{faKey}, directInKeys(e.NC())...))
		regs.Write(1+i, e.Input())
		for {
			target, ok := regs.ReadInt(0)
			if !ok {
				continue
			}
			if v := regs.Read(1 + target); v != nil {
				e.Decide(v)
				return
			}
		}
	}
}

// SeparationSBody relays the FirstAlive detector output into shared memory.
func SeparationSBody(_ int) sim.Body {
	return func(e sim.Ops) {
		fa := e.Bind([]string{faKey})
		for {
			fa.Write(0, e.QueryFD())
		}
	}
}
