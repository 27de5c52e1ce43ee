package wfree

import (
	"fmt"
	"strconv"

	"wfadvice/internal/auto"
	"wfadvice/internal/explore"
	"wfadvice/internal/fdet"
	"wfadvice/internal/sim"
	"wfadvice/internal/task"
	"wfadvice/internal/vec"
)

// This file constructs the impossibility-side witnesses of the hierarchy
// (Theorem 10): runs that demonstrate a k-concurrent algorithm failing at
// concurrency k+1. The primary engine is the internal/explore bounded model
// checker, which searches the schedule tree of the candidate algorithm on
// the sim runtime systematically and returns a minimal-depth witness; the
// older constructed run (KSetViolationAtKPlus1) and the seeded random
// search (FindRenamingViolation in lemma11.go) remain as the fallback
// modes for systems too deep to explore exhaustively.

// ViolationTable is the register table the violation specs run on.
const ViolationTable = "R"

// specOf assembles an exploration spec for a restricted algorithm run on
// the sim runtime: parts participating C-processes on a slots-wide register
// table, plus idleS synchronization processes that loop over reads forever
// (pure schedule noise — the shrinker demonstrably strips them). The system
// is failure-free and detector-free, hence time-insensitive, so the
// explorer may apply its full reductions.
func specOf(name string, slots, parts, idleS int, factory func(i int) auto.Automaton, check func(res *sim.Result) error, meta map[string]string) explore.Spec {
	return explore.Spec{
		Name: name,
		Meta: meta,
		New: func(maxSteps int) (*sim.Runtime, error) {
			inputs := vec.New(slots)
			for i := 0; i < parts && i < slots; i++ {
				inputs[i] = i + 1
			}
			cfg := sim.Config{
				NC: slots, NS: idleS,
				Inputs: inputs,
				CBody: auto.Body(ViolationTable, slots, func(i int, _ sim.Value) auto.Automaton {
					return factory(i)
				}),
				Pattern:  fdet.FailureFree(idleS),
				MaxSteps: maxSteps,
			}
			if idleS > 0 {
				cfg.SBody = func(int) sim.Body {
					return func(e sim.Ops) {
						noop := e.Bind([]string{"noop"})
						for {
							noop.Read(0)
						}
					}
				}
			}
			return sim.New(cfg)
		},
		Check: check,
	}
}

// StrongRenamingSpec is the exploration spec for strong (j,j)-renaming on
// the Figure 4 algorithm: parts = j participants on a slots-wide table; the
// predicate fires on a duplicate decided name or a name outside {1..j}. In
// a run with j = 2 participants every schedule is 2-concurrent, so an
// exhaustive sweep is a bounded proof over all 2-concurrent schedules.
func StrongRenamingSpec(slots, j, idleS int) explore.Spec {
	check := func(res *sim.Result) error {
		return CheckStrongRenamingDecisions(res, j)
	}
	meta := map[string]string{
		"task": "strongrename", "n": strconv.Itoa(slots), "j": strconv.Itoa(j), "idle-s": strconv.Itoa(idleS),
	}
	return specOf("strongrename", slots, j, idleS, func(i int) auto.Automaton { return NewRenaming(i) }, check, meta)
}

// CheckStrongRenamingDecisions judges the decided names of a (possibly
// partial) run against strong (j,j)-renaming: every decided name must be an
// integer in {1..j} and no two processes may share one. Process indices are
// scanned in sorted order so the verdict text is deterministic.
func CheckStrongRenamingDecisions(res *sim.Result, j int) error {
	byName := make(map[int]int)
	for i := 0; i < len(res.Inputs); i++ {
		d, ok := res.Decisions[i]
		if !ok {
			continue
		}
		name, isInt := d.(int)
		if !isInt {
			return fmt.Errorf("p%d decided non-name %v", i+1, d)
		}
		if name < 1 || name > j {
			return fmt.Errorf("p%d decided name %d outside 1..%d", i+1, name, j)
		}
		if prev, dup := byName[name]; dup {
			return fmt.Errorf("p%d and p%d both decided %d", prev+1, i+1, name)
		}
		byName[name] = i
	}
	return nil
}

// KSetSpec is the exploration spec for k-set agreement on the KSet
// automaton: parts participants (run it with parts = k+1 for the level-k+1
// violation search) on a slots-wide table; the predicate fires when more
// than k distinct values are decided.
func KSetSpec(slots, parts, k, idleS int) explore.Spec {
	check := func(res *sim.Result) error {
		return CheckKSetDecisions(res, k)
	}
	meta := map[string]string{
		"task": "kset", "n": strconv.Itoa(slots), "parts": strconv.Itoa(parts),
		"k": strconv.Itoa(k), "idle-s": strconv.Itoa(idleS),
	}
	return specOf("kset", slots, parts, idleS,
		func(i int) auto.Automaton { return NewKSet(i, 100+i) }, check, meta)
}

// CheckKSetDecisions judges the decided values of a (possibly partial) run
// against k-set agreement's bound of k distinct decisions.
func CheckKSetDecisions(res *sim.Result, k int) error {
	distinct := make(map[auto.Value]bool)
	var order []auto.Value
	for i := 0; i < len(res.Inputs); i++ {
		d, ok := res.Decisions[i]
		if !ok {
			continue
		}
		if !distinct[d] {
			distinct[d] = true
			order = append(order, d)
		}
	}
	if len(distinct) > k {
		return fmt.Errorf("%d distinct decisions %v > k=%d", len(distinct), order, k)
	}
	return nil
}

// ExploreStrongRenamingViolation searches the Figure 4 algorithm's schedule
// tree for a strong (j,j)-renaming violation with the systematic explorer
// (iterative deepening, so the witness has minimal schedule depth). If the
// horizon is too shallow it falls back to the seeded random mode. The
// returned string describes the witness.
func ExploreStrongRenamingViolation(slots, j, depth, workers int) (string, *explore.Report, error) {
	spec := StrongRenamingSpec(slots, j, 0)
	rep, err := explore.Explore(spec, explore.Options{MaxDepth: depth, Workers: workers, Mode: explore.ModeFirst})
	if err != nil {
		return "", nil, err
	}
	if rep.Violations > 0 {
		w := rep.Witness[0]
		return fmt.Sprintf("explored: %s at schedule depth %d", w.Err, w.Depth), rep, nil
	}
	// Fallback: seeded random search over the same system.
	ro, err := explore.RandomSearch(spec, 4*depth, 64, 1)
	if err != nil {
		return "", rep, err
	}
	if ro.Hits > 0 {
		return fmt.Sprintf("random fallback (seed %d): %s", ro.Seed, ro.Err), rep, nil
	}
	return "", rep, fmt.Errorf("wfree: no strong-renaming violation within depth %d (+%d random runs)", depth, ro.Tried)
}

// ExploreKSetViolation searches the KSet automaton at concurrency k+1 for a
// run deciding more than k distinct values, with the same explorer-then-
// random discipline.
func ExploreKSetViolation(slots, k, depth, workers int) (string, *explore.Report, error) {
	spec := KSetSpec(slots, k+1, k, 0)
	rep, err := explore.Explore(spec, explore.Options{MaxDepth: depth, Workers: workers, Mode: explore.ModeFirst})
	if err != nil {
		return "", nil, err
	}
	if rep.Violations > 0 {
		w := rep.Witness[0]
		return fmt.Sprintf("explored: %s at schedule depth %d", w.Err, w.Depth), rep, nil
	}
	ro, err := explore.RandomSearch(spec, 4*depth, 64, 1)
	if err != nil {
		return "", rep, err
	}
	if ro.Hits > 0 {
		return fmt.Sprintf("random fallback (seed %d): %s", ro.Seed, ro.Err), rep, nil
	}
	return "", rep, fmt.Errorf("wfree: no k-set violation within depth %d (+%d random runs)", depth, ro.Tried)
}

// KSetViolationAtKPlus1 builds the classic (k+1)-concurrent run in which the
// k-set agreement algorithm decides k+1 distinct values: admit the k+1
// processes in descending index order and stall each right after it chooses
// (but before it publishes), so each sees itself as the smallest undecided
// participant. The run witnesses that the algorithm does not solve k-set
// agreement (k+1)-concurrently — consistent with the fact that no algorithm
// does. It is the constructed (non-searching) fallback for levels beyond
// the explorer's horizon.
func KSetViolationAtKPlus1(n, k int) (string, error) {
	if k+1 > n {
		return "", fmt.Errorf("need n ≥ k+1")
	}
	inputs := vec.New(n)
	autos := make([]auto.Automaton, n)
	for i := 0; i < k+1; i++ {
		inputs[i] = 100 + i
		autos[i] = NewKSet(i, inputs[i])
	}
	sys := auto.NewSystem(autos)
	// Descending order: each process's first view shows only larger-index
	// undecided participants, so it self-chooses.
	for i := k; i >= 0; i-- {
		sys.Step(i) // publish input; view → choose own input (min undecided)
	}
	// Now let everyone publish and decide.
	for round := 0; round < 4; round++ {
		for i := 0; i <= k; i++ {
			sys.Step(i)
		}
	}
	out := vec.New(n)
	distinct := make(map[auto.Value]bool)
	for i := 0; i <= k; i++ {
		d, ok := sys.Decided(i)
		if !ok {
			return "", fmt.Errorf("p%d undecided in violation run", i+1)
		}
		out[i] = d
		distinct[d] = true
	}
	if len(distinct) <= k {
		return "", fmt.Errorf("only %d distinct decisions; no violation", len(distinct))
	}
	err := task.NewSetAgreement(n, k).Validate(inputs, out)
	if err == nil {
		return "", fmt.Errorf("validator accepted the run; no violation")
	}
	return fmt.Sprintf("(k+1)-concurrent run with %d distinct decisions: %v", len(distinct), err), nil
}
