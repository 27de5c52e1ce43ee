// Package auto provides the collect-automaton substrate used for simulated
// sub-executions: a process is a deterministic automaton whose every step
// writes a value to its own register and then collects the other registers.
//
// All the restricted (failure-detector-free) algorithms in "Wait-Freedom
// with Advice" — Proposition 1's sequential solver, the Figure 3 and
// Figure 4 renaming algorithms, and the k-set agreement algorithm — are
// write/collect loops, so this substrate expresses them directly. The same
// automata run in two ways: deterministically in-process via System (used by
// the BG simulation and by Figure 1's local run exploration), or on the real
// sim runtime via the adapter in native.go, where each collect is a sequence
// of individual atomic reads. The automaton contract therefore assumes only
// "regular collect" semantics, never atomic snapshots.
package auto

import "fmt"

// Value is an automaton register value; nil means "never written".
type Value = any

// View is a collect: View[j] is the most recent value written by automaton
// j, or nil. Views are owned by the caller of OnView only for the duration
// of the call; automata must copy what they keep.
type View = []Value

// Automaton is one simulated process. A step consists of the pair
// (WriteValue, OnView): the system writes the automaton's value to its
// register and hands it a collect taken after the write. Once Decided
// returns true the automaton takes no further steps.
type Automaton interface {
	// WriteValue returns the value this automaton writes in its next step.
	// It must be pure (no state change): the system may call it repeatedly.
	WriteValue() Value
	// OnView advances the automaton's state with a collect taken after its
	// write took effect.
	OnView(view View)
	// Decided reports the automaton's decision, if any.
	Decided() (Value, bool)
}

// System executes a fixed set of automata deterministically.
type System struct {
	autos []Automaton
	last  []Value
	steps []int
	total int
}

// NewSystem builds a system over the given automata. Entries may be nil
// (a non-participating slot that never writes).
func NewSystem(autos []Automaton) *System {
	return &System{
		autos: autos,
		last:  make([]Value, len(autos)),
		steps: make([]int, len(autos)),
	}
}

// N returns the number of slots.
func (s *System) N() int { return len(s.autos) }

// Step runs one write+collect step of automaton i. It reports false if the
// slot is empty or already decided (no step taken).
func (s *System) Step(i int) bool {
	if i < 0 || i >= len(s.autos) || s.autos[i] == nil {
		return false
	}
	a := s.autos[i]
	if _, done := a.Decided(); done {
		return false
	}
	s.last[i] = a.WriteValue()
	view := make(View, len(s.last))
	copy(view, s.last)
	a.OnView(view)
	s.steps[i]++
	s.total++
	return true
}

// Decided returns the decision of slot i.
func (s *System) Decided(i int) (Value, bool) {
	if i < 0 || i >= len(s.autos) || s.autos[i] == nil {
		return nil, false
	}
	return s.autos[i].Decided()
}

// AllDecided reports whether every non-nil slot has decided.
func (s *System) AllDecided() bool {
	for i, a := range s.autos {
		if a == nil {
			continue
		}
		if _, ok := s.Decided(i); !ok {
			return false
		}
	}
	return true
}

// StepsOf returns the number of steps taken by slot i.
func (s *System) StepsOf(i int) int { return s.steps[i] }

// View returns a copy of the current register contents.
func (s *System) View() View {
	v := make(View, len(s.last))
	copy(v, s.last)
	return v
}

// RunRoundRobin steps all undecided slots in round-robin order until all
// decide or the step budget runs out. It returns an error on budget
// exhaustion with undecided slots remaining.
func (s *System) RunRoundRobin(maxSteps int) error {
	for s.total < maxSteps {
		progressed := false
		for i := range s.autos {
			if s.total >= maxSteps {
				break
			}
			if s.Step(i) {
				progressed = true
			}
		}
		if !progressed {
			if s.AllDecided() {
				return nil
			}
			return fmt.Errorf("auto: no automaton can step but not all decided")
		}
		if s.AllDecided() {
			return nil
		}
	}
	if s.AllDecided() {
		return nil
	}
	return fmt.Errorf("auto: step budget %d exhausted with undecided automata", maxSteps)
}

// RunSchedule steps slots in the order given by schedule (indices), skipping
// decided/empty slots, and returns the number of effective steps.
func (s *System) RunSchedule(schedule []int) int {
	n := 0
	for _, i := range schedule {
		if s.Step(i) {
			n++
		}
	}
	return n
}

// RunKConcurrent admits slots in index order, keeping at most k undecided
// admitted slots at any time, stepping admitted slots round-robin. It is the
// in-process analogue of the sim.KGate scheduler. Returns an error if the
// budget is exhausted before all slots decide.
func (s *System) RunKConcurrent(k, maxSteps int) error {
	admitted := make([]int, 0, len(s.autos))
	nextAdmit := 0
	for s.total < maxSteps {
		// Admit while fewer than k admitted slots are undecided.
		undecided := 0
		for _, i := range admitted {
			if _, ok := s.Decided(i); !ok {
				undecided++
			}
		}
		for undecided < k && nextAdmit < len(s.autos) {
			if s.autos[nextAdmit] == nil {
				nextAdmit++
				continue
			}
			admitted = append(admitted, nextAdmit)
			nextAdmit++
			undecided++
		}
		progressed := false
		for _, i := range admitted {
			if s.total >= maxSteps {
				break
			}
			if s.Step(i) {
				progressed = true
			}
		}
		if s.AllDecided() {
			return nil
		}
		if !progressed {
			return fmt.Errorf("auto: stuck in k-concurrent run (k=%d)", k)
		}
	}
	if s.AllDecided() {
		return nil
	}
	return fmt.Errorf("auto: step budget %d exhausted in k-concurrent run", maxSteps)
}
