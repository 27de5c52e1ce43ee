package core

import (
	"fmt"

	"wfadvice/internal/fdet"
	"wfadvice/internal/vec"
)

// This file implements the Theorem 8 reduction (Figure 1): from any failure
// detector D that solves a task T that is not (k+1)-concurrently solvable,
// the S-processes can emulate ¬Ωk. The reduction samples D into a DAG and
// explores (k+1)-concurrent runs of Asim, emitting at every step the n−k
// S-processes that appear latest in the current simulated run; once the
// exploration settles into a never-deciding run, some correct S-process is
// blocked and falls out of the output forever — which is exactly ¬Ωk.
//
// Two bounded reproductions of the unbounded search are provided
// (DESIGN.md records the substitution):
//
//   - ExtractWitness constructs the never-deciding (k+1)-concurrent run
//     directly: it stalls k C-simulators one by one, each between its
//     level-1 and level-2 safe-agreement writes on one advice-critical
//     S-code, then lets the last C-simulator run alone. The emitted output
//     stream must stabilize to sets excluding a blocked correct S-process —
//     the checkable ¬Ωk property.
//
//   - ExploreCorridors runs the Figure 1 corridor DFS under explicit
//     budgets, checking the structural invariants along the way (every
//     simulated run is (k+1)-concurrent; solo corridors decide; outputs are
//     well-formed sets of n−k ids).

// OutputSample is one emitted ¬Ωk output.
type OutputSample struct {
	Tick int
	Set  []int
}

// ExtractResult carries an emitted output stream and statistics.
type ExtractResult struct {
	Samples []OutputSample
	// BlockedS lists the S-codes blocked by stalled simulators (witness
	// mode).
	BlockedS []int
	// Steps is the total number of machine steps executed.
	Steps int
	// Decided counts simulated C-decisions observed during exploration.
	Decided int
}

// CheckAntiOmegaStream audits an emitted stream against the ¬Ωk property
// over its suffix: some correct S-process (per pattern) appears in no output
// of the last tailFrac fraction of samples.
func CheckAntiOmegaStream(res *ExtractResult, p fdet.Pattern, tailFrac float64) error {
	if len(res.Samples) == 0 {
		return fmt.Errorf("empty output stream")
	}
	from := int(float64(len(res.Samples)) * (1 - tailFrac))
	everOutput := make(map[int]bool)
	for _, s := range res.Samples[from:] {
		for _, q := range s.Set {
			everOutput[q] = true
		}
	}
	for _, c := range p.Correct() {
		if !everOutput[c] {
			return nil
		}
	}
	return fmt.Errorf("every correct S-process appears in the stream suffix; ¬Ωk not emulated")
}

// WitnessConfig configures the guided never-deciding-run construction.
type WitnessConfig struct {
	Alg SimAlg
	K   int
	DAG *fdet.DAG
	// Leaders lists, per advice position, the S-code whose blocking stalls
	// that position's progress (for DirectSimAlg with a pinned vector-Ωk
	// history: the pinned leaders).
	Leaders []int
	// Inputs is the task input vector.
	Inputs vec.Vector
}

// The witness run's fixed budgets: at most witnessPrelude steps to stall
// each simulator, a solo descent of witnessSolo steps, and one output
// sample every witnessEmit steps.
const (
	witnessPrelude = 50_000
	witnessSolo    = 50_000
	witnessEmit    = 10
)

// ExtractWitness builds the blocking run and returns its output stream.
// The corridor is {p1, ..., p_{k+1}}: simulators p2..p_{k+1} each stall
// holding a level-1 safe agreement on one distinct advice leader, and p1
// then runs alone. The run stays (k+1)-concurrent by construction.
func ExtractWitness(cfg WitnessConfig) (*ExtractResult, error) {
	n := cfg.Alg.N()
	if len(cfg.Leaders) < cfg.K {
		return nil, fmt.Errorf("need %d leaders, have %d", cfg.K, len(cfg.Leaders))
	}
	m := NewAsimMachine(cfg.Alg, cfg.Inputs, cfg.DAG)
	res := &ExtractResult{}
	emit := func() {
		if res.Steps%witnessEmit == 0 {
			res.Samples = append(res.Samples, OutputSample{Tick: res.Steps, Set: m.LastSTurnSet(n - cfg.K)})
		}
	}
	// Stall p_{m+2} on leader m (simulators are 1-indexed as p2..p_{k+1}).
	for idx := 0; idx < cfg.K; idx++ {
		sim := idx + 1 // C-process index of the simulator to stall
		target := cfg.Leaders[idx]
		stalled := false
		for t := 0; t < witnessPrelude; t++ {
			if !m.StepC(sim) {
				return nil, fmt.Errorf("simulator p%d cannot step", sim+1)
			}
			res.Steps++
			emit()
			if m.HoldsLevel1On(sim, target) {
				stalled = true
				break
			}
			if _, ok := m.Decided(sim); ok {
				return nil, fmt.Errorf("simulator p%d decided before stalling on q%d", sim+1, target+1)
			}
		}
		if !stalled {
			return nil, fmt.Errorf("simulator p%d never engaged q%d within %d steps", sim+1, target+1, witnessPrelude)
		}
		res.BlockedS = append(res.BlockedS, target)
	}
	// Solo descent of p1.
	for t := 0; t < witnessSolo; t++ {
		if !m.StepC(0) {
			return nil, fmt.Errorf("p1 cannot step")
		}
		res.Steps++
		emit()
	}
	for i := 0; i < n; i++ {
		if _, ok := m.Decided(i); ok {
			res.Decided++
		}
	}
	return res, nil
}

// ExploreConfig configures the bounded Figure 1 corridor DFS.
type ExploreConfig struct {
	Alg SimAlg
	K   int
	DAG *fdet.DAG
	// Inputs are the input vectors I0 to iterate over (Figure 1 line 1).
	// The arrival order π0 (Figure 1 line 2) is the identity order.
	Inputs []vec.Vector
	// StepBudget bounds the total machine steps across the exploration
	// (replays included).
	StepBudget int
}

type explorer struct {
	cfg     ExploreConfig
	n       int
	budget  int
	res     *ExtractResult
	maxConc int
}

// ExploreCorridors runs the bounded DFS and returns the emitted stream plus
// the maximum concurrency observed across simulated runs (which must never
// exceed k+1).
func ExploreCorridors(cfg ExploreConfig) (*ExtractResult, int, error) {
	if cfg.StepBudget == 0 {
		cfg.StepBudget = 200_000
	}
	x := &explorer{cfg: cfg, n: cfg.Alg.N(), budget: cfg.StepBudget, res: &ExtractResult{}}
	pi := make([]int, x.n)
	for i := range pi {
		pi[i] = i
	}
	for _, input := range cfg.Inputs {
		p0 := corridorInit(input, pi, cfg.K+1)
		if len(p0) == 0 {
			continue
		}
		x.explore(input, nil, p0, pi)
		if x.budget <= 0 {
			break
		}
	}
	return x.res, x.maxConc, nil
}

// corridorInit selects the first k+1 participating processes in π order
// (Figure 1 line 3).
func corridorInit(input vec.Vector, pi []int, size int) []int {
	out := make([]int, 0, size)
	for _, i := range pi {
		if input[i] != nil {
			out = append(out, i)
			if len(out) == size {
				break
			}
		}
	}
	return out
}

// explore is Figure 1's explore(I, σ, P, π) with a global step budget. The
// machine is replayed from σ at each node (deterministic replay stands in
// for state copying).
func (x *explorer) explore(input vec.Vector, sigma []int, p []int, pi []int) {
	if x.budget <= 0 {
		return
	}
	m := NewAsimMachine(x.cfg.Alg, input, x.cfg.DAG)
	conc := x.replay(m, sigma)
	if conc > x.maxConc {
		x.maxConc = conc
	}
	x.res.Samples = append(x.res.Samples, OutputSample{Tick: x.res.Steps, Set: m.LastSTurnSet(x.n - x.cfg.K)})

	// Figure 1 lines 10–13: replace decided processes by fresh arrivals.
	active := make([]int, 0, len(p))
	used := make(map[int]bool, len(sigma)+len(p))
	for _, i := range sigma {
		used[i] = true
	}
	for _, i := range p {
		used[i] = true
	}
	for _, i := range p {
		if _, ok := m.Decided(i); !ok {
			active = append(active, i)
			continue
		}
		x.res.Decided++
		for _, f := range pi {
			if !used[f] && input[f] != nil {
				used[f] = true
				active = append(active, f)
				break
			}
		}
	}
	if len(active) == 0 {
		return
	}
	// Figure 1 lines 14–16: sub-corridors in ⊆-consistent order.
	for _, sub := range subsetsBySize(active) {
		for _, pj := range sub {
			if x.budget <= 0 {
				return
			}
			x.explore(input, append(sigma[:len(sigma):len(sigma)], pj), sub, pi)
		}
	}
}

// replay executes σ on a fresh machine, charging the budget, and returns the
// run's C-concurrency (participating and undecided simultaneously).
func (x *explorer) replay(m *AsimMachine, sigma []int) int {
	maxConc := 0
	active := make(map[int]bool)
	for _, i := range sigma {
		if x.budget <= 0 {
			break
		}
		x.budget--
		x.res.Steps++
		if !m.StepC(i) {
			continue
		}
		if _, ok := m.Decided(i); ok {
			delete(active, i)
		} else {
			active[i] = true
		}
		if len(active) > maxConc {
			maxConc = len(active)
		}
	}
	return maxConc
}

// subsetsBySize enumerates the non-empty subsets of xs ordered by size then
// lexicographically — an order consistent with ⊆ as Figure 1 requires.
func subsetsBySize(xs []int) [][]int {
	n := len(xs)
	var out [][]int
	for size := 1; size <= n; size++ {
		var rec func(start int, cur []int)
		rec = func(start int, cur []int) {
			if len(cur) == size {
				cp := make([]int, size)
				copy(cp, cur)
				out = append(out, cp)
				return
			}
			for i := start; i < n; i++ {
				rec(i+1, append(cur, xs[i]))
			}
		}
		rec(0, nil)
	}
	return out
}
