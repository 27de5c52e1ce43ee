// Package fdet implements failure patterns, environments, failure-detector
// histories and the detectors used in "Wait-Freedom with Advice": the
// trivial detector, Ω, anti-Ω-k (¬Ωk), vector-Ω-k (the equivalent form used
// by the Figure 2 simulation) and the §2.3 counterexample detector.
//
// Only S-processes are subject to failures (§2.1): a failure pattern F maps
// each time τ to the set of S-processes that have crashed by τ. A history H
// maps (S-process, time) to a detector value. A detector D maps every
// failure pattern to a non-empty set of histories; here detectors are
// history generators that are deterministic given a seed, plus property
// checkers used to audit emulated histories (such as the output of the
// Figure 1 extraction algorithm).
package fdet

import "fmt"

// Time is the discrete time range T = N of the model; the simulation runtime
// identifies time with its global step counter.
type Time = int

// Pattern is a failure pattern over n S-processes: CrashAt[i] is the time at
// which S-process i crashes, or NoCrash if it is correct. Crashes are
// permanent (F(τ) ⊆ F(τ+1) holds by construction).
type Pattern struct {
	N       int
	CrashAt []Time
}

// NoCrash marks a correct process in Pattern.CrashAt.
const NoCrash = int(^uint(0) >> 1) // max int

// NewPattern returns a failure pattern over n S-processes in which the
// processes listed in crashAt crash at the given times and all others are
// correct.
func NewPattern(n int, crashAt map[int]Time) Pattern {
	p := Pattern{N: n, CrashAt: make([]Time, n)}
	for i := range p.CrashAt {
		p.CrashAt[i] = NoCrash
	}
	for i, t := range crashAt {
		if i >= 0 && i < n {
			p.CrashAt[i] = t
		}
	}
	return p
}

// FailureFree returns the pattern with no crashes.
func FailureFree(n int) Pattern { return NewPattern(n, nil) }

// Crashed reports whether S-process i has crashed by time t (i ∈ F(t)).
func (p Pattern) Crashed(i int, t Time) bool {
	return i >= 0 && i < p.N && p.CrashAt[i] <= t
}

// Faulty reports whether S-process i is faulty in p (crashes at any time).
func (p Pattern) Faulty(i int) bool {
	return i >= 0 && i < p.N && p.CrashAt[i] != NoCrash
}

// Correct returns the sorted indices of correct S-processes.
func (p Pattern) Correct() []int {
	out := make([]int, 0, p.N)
	for i := 0; i < p.N; i++ {
		if !p.Faulty(i) {
			out = append(out, i)
		}
	}
	return out
}

// FaultySet returns the sorted indices of faulty S-processes.
func (p Pattern) FaultySet() []int {
	out := make([]int, 0, p.N)
	for i := 0; i < p.N; i++ {
		if p.Faulty(i) {
			out = append(out, i)
		}
	}
	return out
}

// MinCorrect returns the smallest index of a correct S-process. It panics if
// every process is faulty; the model assumes at least one correct S-process
// in every environment (§2.1).
func (p Pattern) MinCorrect() int {
	for i := 0; i < p.N; i++ {
		if !p.Faulty(i) {
			return i
		}
	}
	panic("fdet: failure pattern with no correct S-process")
}

// MinAlive returns the smallest index of an S-process not yet crashed at
// time t, falling back to MinCorrect if every process has crashed by t
// (impossible in legal environments, which have a correct process).
func (p Pattern) MinAlive(t Time) int {
	for i := 0; i < p.N; i++ {
		if !p.Crashed(i, t) {
			return i
		}
	}
	return p.MinCorrect()
}

// String implements fmt.Stringer.
func (p Pattern) String() string {
	f := p.FaultySet()
	if len(f) == 0 {
		return fmt.Sprintf("failure-free(%d)", p.N)
	}
	s := fmt.Sprintf("pattern(n=%d;", p.N)
	for _, i := range f {
		s += fmt.Sprintf(" q%d@%d", i+1, p.CrashAt[i])
	}
	return s + ")"
}

// EnvT is the environment E_t (§2.1), a set of failure patterns: all those
// with at most T faulty S-processes (and at least one correct one).
type EnvT struct {
	T int
}

// Allows reports whether the pattern belongs to the environment.
func (e EnvT) Allows(p Pattern) bool {
	f := len(p.FaultySet())
	return f <= e.T && f < p.N
}

// Sample enumerates representative patterns over n S-processes for
// experiment sweeps, crash times within horizon: the failure-free pattern
// plus, for each feasible number of crashes 1..T, an early-crash and a
// late-crash pattern over a spread of victim sets.
func (e EnvT) Sample(n int, horizon Time) []Pattern {
	out := []Pattern{FailureFree(n)}
	maxF := e.T
	if maxF > n-1 {
		maxF = n - 1
	}
	for f := 1; f <= maxF; f++ {
		early := make(map[int]Time, f)
		late := make(map[int]Time, f)
		for i := 0; i < f; i++ {
			early[i] = Time(i) // crash q1..qf at the start
			late[n-1-i] = horizon / 2
		}
		out = append(out, NewPattern(n, early), NewPattern(n, late))
	}
	return out
}
