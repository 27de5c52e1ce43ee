package exp

import (
	"fmt"
	"math/rand"
	"reflect"

	"wfadvice/internal/auto"
	"wfadvice/internal/bg"
	"wfadvice/internal/core"
	"wfadvice/internal/explore"
	"wfadvice/internal/fdet"
	"wfadvice/internal/ids"
	"wfadvice/internal/sim"
	"wfadvice/internal/task"
	"wfadvice/internal/vec"
	"wfadvice/internal/wfree"
)

// Experiments returns every experiment (E1–E14) in canonical order, each
// decomposed into independent trial cells for the Engine.
func Experiments() []Experiment {
	return []Experiment{
		expE1(), expE2(), expE3(), expE4(), expE5(), expE6(),
		expE7(), expE8(), expE9(), expE10(), expE11(), expE12(),
		expE13(), expE14(),
	}
}

func intInputs(n, base int) vec.Vector {
	v := vec.New(n)
	for i := range v {
		v[i] = base + i
	}
	return v
}

func ok(err error) string {
	if err != nil {
		return "FAIL: " + err.Error()
	}
	return "ok"
}

// expE1 validates Proposition 1: every task is 1-concurrently solvable,
// across the task zoo and system sizes. One cell per (task, n) pair.
func expE1() Experiment {
	zoo := []struct {
		name string
		mk   func(n int) task.Sequential
	}{
		{"consensus", func(n int) task.Sequential { return task.NewConsensus(n) }},
		{"set-agreement", func(n int) task.Sequential { return task.NewSetAgreement(n, 2) }},
		{"strong-renaming", func(n int) task.Sequential { return task.NewStrongRenaming(n+1, n) }},
		{"wsb", func(n int) task.Sequential { return task.NewWSB(n) }},
		{"identity", func(n int) task.Sequential { return task.NewIdentity(n) }},
	}
	return Experiment{
		ID:     "E1",
		Name:   "prop1-one-concurrent",
		Title:  "every task is 1-concurrently solvable (Prop 1)",
		Claim:  "the Prop 1 algorithm decides for all participants and satisfies ∆ in 1-concurrent runs",
		Header: []string{"task", "n", "decided", "valid"},
		Cells: func(opt Options) []Cell {
			sizes := []int{3, 5, 8}
			if opt.Short {
				sizes = []int{3, 5}
			}
			var cells []Cell
			for _, n := range sizes {
				for _, z := range zoo {
					cells = append(cells, Cell{
						Name: fmt.Sprintf("%s/n=%d", z.name, n),
						Run: func(*Trial) Outcome {
							tk := z.mk(n)
							inputs := vec.New(tk.N())
							autos := make([]auto.Automaton, tk.N())
							for i := 0; i < n; i++ {
								inputs[i] = i + 1
								autos[i] = wfree.NewProp1(tk, i, inputs[i])
							}
							sys := auto.NewSystem(autos)
							runErr := sys.RunKConcurrent(1, 100_000)
							out := vec.New(tk.N())
							decided := 0
							for i := 0; i < n; i++ {
								if d, okd := sys.Decided(i); okd {
									out[i] = d
									decided++
								}
							}
							valErr := tk.Validate(inputs, out)
							fail := runErr != nil || valErr != nil || decided != n
							return Row(fail, tk.Name(), fmt.Sprint(n),
								fmt.Sprintf("%d/%d", decided, n), ok(valErr))
						},
					})
				}
			}
			return cells
		},
	}
}

// expE2 validates the Proposition 2 discussion: n S-processes solve n-set
// agreement with the trivial detector in every environment. One cell per
// (nS, failure pattern) pair.
func expE2() Experiment {
	return Experiment{
		ID:     "E2",
		Name:   "shelper-set-agreement",
		Title:  "n S-helpers give n-set agreement with a trivial detector (Prop 2)",
		Claim:  "distinct decisions ≤ number of S-processes, under any crashes leaving one correct",
		Header: []string{"nC", "nS", "crashes", "distinct", "valid"},
		Cells: func(opt Options) []Cell {
			sizes := []int{1, 2, 3, 4}
			if opt.Short {
				sizes = []int{1, 2, 3}
			}
			var cells []Cell
			for _, ns := range sizes {
				env := fdet.EnvT{T: ns - 1}
				for pi, pat := range env.Sample(ns, 1000) {
					cells = append(cells, Cell{
						Name: fmt.Sprintf("nS=%d/pattern=%d", ns, pi),
						Run: func(t *Trial) Outcome {
							nc := 6
							sh := core.SHelperConfig{NC: nc, NS: ns}
							cfg := sim.Config{
								NC: nc, NS: ns, Inputs: intInputs(nc, 0),
								CBody:    sh.SHelperCBody,
								SBody:    sh.SHelperSBody,
								Pattern:  pat,
								History:  fdet.Trivial{}.History(pat, 0, t.Seed),
								MaxSteps: 200_000,
							}
							rt, err := sim.New(cfg)
							if err != nil {
								return Row(true, t.Name, "FAIL: "+err.Error())
							}
							res := rt.Run(&sim.StopWhenDecided{Inner: &sim.RoundRobin{}})
							verr := sim.Check(task.NewSetAgreement(nc, ns), res)
							return Row(verr != nil, fmt.Sprint(nc), fmt.Sprint(ns),
								fmt.Sprint(len(pat.FaultySet())),
								fmt.Sprint(res.Outputs.DistinctValues()), ok(verr))
						},
					})
				}
			}
			return cells
		},
	}
}

// expE3 validates the §2.3 separation: FirstAlive classically solves
// 2-process consensus but does not EFD-solve it. Three scenario cells in a
// fixed order (the sequential harness iterated a map here, so the seed's
// row order was nondeterministic).
func expE3() Experiment {
	runE3 := func(pat fdet.Pattern, sched sim.Scheduler) *sim.Result {
		cfg := sim.Config{
			NC: 2, NS: 2, Inputs: vec.Of("a", "b"),
			CBody:    core.SeparationCBody(2),
			SBody:    core.SeparationSBody,
			Pattern:  pat,
			History:  fdet.FirstAlive{}.History(pat, 0, 1),
			MaxSteps: 60_000,
		}
		rt, err := sim.New(cfg)
		if err != nil {
			return nil
		}
		return rt.Run(sched)
	}
	show := func(v any) string {
		if v == nil {
			return "⊥"
		}
		return fmt.Sprint(v)
	}
	personified := func(name string, pat fdet.Pattern) Cell {
		return Cell{
			Name: name,
			Run: func(*Trial) Outcome {
				consensus2 := task.NewSubsetAgreement(2, 1, []int{0, 1})
				res := runE3(pat, &sim.StopWhenDecided{
					Inner: &sim.Personified{Pattern: pat, Inner: &sim.RoundRobin{}}})
				verr := sim.CheckTask(consensus2, res)
				return Row(verr != nil, name, show(res.Outputs[0]), show(res.Outputs[1]), ok(verr))
			},
		}
	}
	return Experiment{
		ID:     "E3",
		Name:   "classical-vs-efd",
		Title:  "classical solvability without EFD solvability (§2.3)",
		Claim:  "personified runs decide and agree; a fair run with p1 stopped starves p2",
		Header: []string{"scenario", "p1", "p2", "outcome"},
		Cells: func(Options) []Cell {
			return []Cell{
				personified("personified, q1 correct", fdet.FailureFree(2)),
				personified("personified, q1 crashes", fdet.NewPattern(2, map[int]int{0: 0})),
				{
					Name: "fair EFD run, p1 stopped",
					Run: func(*Trial) Outcome {
						pat := fdet.FailureFree(2)
						res := runE3(pat, &sim.Exclude{Procs: []ids.Proc{ids.C(0)}, Inner: &sim.RoundRobin{}})
						starved := res.Outputs[1] == nil
						return Row(!starved, "fair EFD run, p1 stopped",
							show(res.Outputs[0]), show(res.Outputs[1]),
							map[bool]string{true: "p2 starves: EFD-unsolvable witness", false: "FAIL: p2 decided"}[starved])
					},
				},
			}
		},
	}
}

// expE4 validates Theorem 14 (Figure 2): at most min(k, ℓ) simulated codes
// take steps, and at least one makes unbounded progress. One cell per
// (n, k, ℓ) triple; the trial seed drives the pre-stabilization detector
// noise.
func expE4() Experiment {
	return Experiment{
		ID:     "E4",
		Name:   "fig2-kcodes",
		Title:  "simulating k codes with vector-Ωk (Fig 2 / Thm 14)",
		Claim:  "codes beyond min(k,ℓ) take no steps; some code advances unboundedly",
		Header: []string{"n", "k", "ℓ", "codes stepped", "best progress", "ok"},
		Cells: func(opt Options) []Cell {
			grid := []struct{ n, k, ell int }{
				{4, 1, 4}, {4, 2, 4}, {4, 2, 1}, {5, 3, 2}, {6, 3, 6},
			}
			maxSteps := 300_000
			if opt.Short {
				grid = grid[:3]
				maxSteps = 80_000
			}
			var cells []Cell
			for _, tc := range grid {
				cells = append(cells, Cell{
					Name: fmt.Sprintf("n=%d/k=%d/ell=%d", tc.n, tc.k, tc.ell),
					Run: func(t *Trial) Outcome {
						inputs := vec.New(tc.n)
						for i := 0; i < tc.ell; i++ {
							inputs[i] = 1
						}
						mc := core.MachineConfig{NC: tc.n, NS: tc.n, K: tc.k, Lanes: true,
							Factory: func(i int, _ sim.Value) auto.Automaton { return auto.NewClock() }}
						pat := fdet.FailureFree(tc.n)
						cfg := sim.Config{
							NC: tc.n, NS: tc.n, Inputs: inputs,
							CBody:    mc.SolverCBody,
							SBody:    mc.SolverSBody,
							Pattern:  pat,
							History:  fdet.VectorOmegaK{K: tc.k, GoodPos: 0}.History(pat, 200, t.Seed),
							MaxSteps: maxSteps,
						}
						rt, err := sim.New(cfg)
						if err != nil {
							return Row(true, t.Name, "FAIL: "+err.Error())
						}
						res := rt.Run(&sim.RoundRobin{})
						tr := mc.Replay(res.FinalStore)
						limit := tc.k
						if tc.ell < limit {
							limit = tc.ell
						}
						stepped, best, bad := 0, 0, false
						for a, s := range tr.CellSteps {
							if s > 0 {
								stepped++
								if a >= limit {
									bad = true
								}
							}
							if s > best {
								best = s
							}
						}
						pass := !bad && best >= 50
						return Row(!pass, fmt.Sprint(tc.n), fmt.Sprint(tc.k), fmt.Sprint(tc.ell),
							fmt.Sprint(stepped), fmt.Sprint(best),
							map[bool]string{true: "ok", false: "FAIL"}[pass])
					},
				})
			}
			return cells
		},
	}
}

// expE5 validates Theorem 9 on k-set agreement: the direct vector-Ωk solver
// decides wait-free under S-crashes, C-pauses and seeded-random schedules.
// One cell per (n, k, crashes, adversary) configuration.
func expE5() Experiment {
	type e5case struct {
		n, k, crash int
		pause       bool
		random      bool
	}
	return Experiment{
		ID:     "E5",
		Name:   "solve-kset",
		Title:  "k-set agreement with vector-Ωk advice (Thm 9 / Prop 6)",
		Claim:  "all C-processes decide; ≤ k distinct proposed values",
		Header: []string{"n", "k", "crashes", "adversary", "steps", "valid"},
		Cells: func(opt Options) []Cell {
			grid := []e5case{
				{n: 4, k: 1}, {n: 4, k: 1, crash: 3}, {n: 5, k: 2}, {n: 5, k: 2, crash: 2},
				{n: 6, k: 3, crash: 3}, {n: 4, k: 1, pause: true}, {n: 5, k: 2, pause: true},
				{n: 4, k: 1, random: true}, {n: 5, k: 2, crash: 2, random: true},
			}
			if opt.Short {
				grid = []e5case{
					{n: 4, k: 1}, {n: 4, k: 1, crash: 3}, {n: 5, k: 2},
					{n: 4, k: 1, pause: true}, {n: 4, k: 1, random: true},
				}
			}
			var cells []Cell
			for _, tc := range grid {
				adv := "rr"
				if tc.pause {
					adv = "pause"
				} else if tc.random {
					adv = "random"
				}
				cells = append(cells, Cell{
					Name: fmt.Sprintf("n=%d/k=%d/crash=%d/%s", tc.n, tc.k, tc.crash, adv),
					Run: func(t *Trial) Outcome {
						sc, err := core.NewScenario(core.ScenarioParams{Task: "kset", N: tc.n, K: tc.k, Crash: tc.crash, Stabilize: 300})
						if err != nil {
							return Row(true, t.Name, "FAIL: "+err.Error())
						}
						rt, err := sim.New(sc.SimConfig(t.Seed, 2_000_000))
						if err != nil {
							return Row(true, t.Name, "FAIL: "+err.Error())
						}
						var inner sim.Scheduler = &sim.RoundRobin{}
						adversary := "round-robin"
						switch {
						case tc.pause:
							inner = &sim.PauseWindow{Proc: ids.C(0), From: 10, To: 100_000, Inner: inner}
							adversary = "p1 paused 100k steps"
						case tc.random:
							inner = sim.NewRandom(t.Rng.Int63())
							adversary = "seeded random"
						}
						res := rt.Run(&sim.StopWhenDecided{Inner: inner})
						verr := sim.Check(sc.Task, res)
						return Row(verr != nil, fmt.Sprint(tc.n), fmt.Sprint(tc.k),
							fmt.Sprint(tc.crash), adversary, fmt.Sprint(res.Steps), ok(verr))
					},
				})
			}
			return cells
		},
	}
}

// expE6 validates Theorem 9 / Theorem 16 on a colored task: the generic
// machine simulates the Figure 4 algorithm k-concurrently. One cell per
// (n, j, k) triple.
func expE6() Experiment {
	return Experiment{
		ID:     "E6",
		Name:   "solve-renaming",
		Title:  "(j, j+k−1)-renaming with vector-Ωk via the generic solver (Thm 16)",
		Claim:  "participants obtain distinct names in {1..j+k−1}; simulated run is k-concurrent",
		Header: []string{"n", "j", "k", "max name", "sim conc ≤ k", "valid"},
		Cells: func(opt Options) []Cell {
			grid := []struct{ n, j, k int }{
				{4, 3, 1}, {4, 3, 2}, {5, 4, 2}, {6, 4, 3},
			}
			if opt.Short {
				grid = grid[:2]
			}
			var cells []Cell
			for _, tc := range grid {
				cells = append(cells, Cell{
					Name: fmt.Sprintf("n=%d/j=%d/k=%d", tc.n, tc.j, tc.k),
					Run: func(t *Trial) Outcome {
						sc, err := core.NewScenario(core.ScenarioParams{Task: "renaming", N: tc.n, J: tc.j, K: tc.k, Stabilize: 300})
						if err != nil {
							return Row(true, t.Name, "FAIL: "+err.Error())
						}
						rt, err := sim.New(sc.SimConfig(t.Seed, 6_000_000))
						if err != nil {
							return Row(true, t.Name, "FAIL: "+err.Error())
						}
						res := rt.Run(&sim.StopWhenDecided{Inner: &sim.RoundRobin{}})
						verr := sim.Check(sc.Task, res)
						maxName := 0
						for _, v := range res.Outputs {
							if name, isInt := v.(int); isInt && name > maxName {
								maxName = name
							}
						}
						tr := core.MachineConfig{NC: tc.n, K: tc.k}.Replay(res.FinalStore)
						concOK := tr.ConcurrencyBound() <= tc.k
						return Row(verr != nil || !concOK,
							fmt.Sprint(tc.n), fmt.Sprint(tc.j), fmt.Sprint(tc.k),
							fmt.Sprint(maxName), fmt.Sprint(concOK), ok(verr))
					},
				})
			}
			return cells
		},
	}
}

// expE7 validates Theorem 8 (Figure 1): the reduction's output stream
// satisfies the ¬Ωk property on the never-deciding witness run, and the
// bounded DFS preserves the structural invariants. One cell per (n, k)
// pair, contributing the witness row and the DFS row.
func expE7() Experiment {
	return Experiment{
		ID:     "E7",
		Name:   "extract-anti-omega",
		Title:  "extracting ¬Ωk from a detector solving k-set agreement (Fig 1 / Thm 8)",
		Claim:  "witness stream suffix excludes a correct S-process; DFS runs stay (k+1)-concurrent",
		Header: []string{"n", "k", "mode", "samples", "property"},
		Cells: func(opt Options) []Cell {
			grid := []struct{ n, k int }{{3, 1}, {4, 1}, {4, 2}, {5, 2}}
			samples, budget := 60_000, 120_000
			if opt.Short {
				grid = grid[:2]
				samples, budget = 20_000, 50_000
			}
			var cells []Cell
			for _, tc := range grid {
				cells = append(cells, Cell{
					Name: fmt.Sprintf("n=%d/k=%d", tc.n, tc.k),
					Run: func(t *Trial) Outcome {
						var o Outcome
						pat := fdet.FailureFree(tc.n)
						det := fdet.VectorOmegaK{K: tc.k, GoodPos: 0, Pinned: true}
						dag := fdet.BuildDAG(pat, det.History(pat, 0, t.Seed),
							fdet.RoundRobinSchedule(tc.n, samples))
						res, err := core.ExtractWitness(core.WitnessConfig{
							Alg:     core.DirectSimAlg{NC: tc.n, K: tc.k},
							K:       tc.k,
							DAG:     dag,
							Leaders: det.PinnedLeaders(pat)[:tc.k],
							Inputs:  intInputs(tc.n, 10),
						})
						verr := err
						if verr == nil {
							verr = core.CheckAntiOmegaStream(res, pat, 0.5)
						}
						if verr != nil {
							o.Failures++
						}
						samples := 0
						if res != nil {
							samples = len(res.Samples)
						}
						o.Rows = append(o.Rows, []string{
							fmt.Sprint(tc.n), fmt.Sprint(tc.k), "witness", fmt.Sprint(samples), ok(verr)})

						dres, maxConc, derr := core.ExploreCorridors(core.ExploreConfig{
							Alg:        core.DirectSimAlg{NC: tc.n, K: tc.k},
							K:          tc.k,
							DAG:        dag,
							Inputs:     []vec.Vector{intInputs(tc.n, 10)},
							StepBudget: budget,
						})
						status := "ok"
						if derr != nil || maxConc > tc.k+1 || len(dres.Samples) == 0 {
							o.Failures++
							status = fmt.Sprintf("FAIL (conc=%d err=%v)", maxConc, derr)
						}
						o.Rows = append(o.Rows, []string{
							fmt.Sprint(tc.n), fmt.Sprint(tc.k), "bounded DFS",
							fmt.Sprint(len(dres.Samples)), status})
						return o
					},
				})
			}
			return cells
		},
	}
}

// expE8 validates Theorem 7: a detector solving (U,k)-agreement on k+1
// processes solves k-set agreement among all n. One cell per (n, k) pair;
// the trial seed drives the pipeline's schedules and histories.
func expE8() Experiment {
	return Experiment{
		ID:     "E8",
		Name:   "puzzle",
		Title:  "the puzzle: subset k-set agreement amplifies to all n (Thm 7)",
		Claim:  "subset solve + extraction + global solve all succeed",
		Header: []string{"n", "k", "|U|", "subset", "extraction", "global"},
		Cells: func(opt Options) []Cell {
			grid := []struct{ n, k int }{{5, 1}, {6, 2}, {7, 3}}
			if opt.Short {
				grid = grid[:1]
			}
			var cells []Cell
			for _, tc := range grid {
				cells = append(cells, Cell{
					Name: fmt.Sprintf("n=%d/k=%d", tc.n, tc.k),
					Run: func(t *Trial) Outcome {
						rep, err := core.RunPuzzle(core.PuzzleConfig{N: tc.n, K: tc.k, Seed: t.Seed})
						if err != nil {
							return Row(true, fmt.Sprint(tc.n), fmt.Sprint(tc.k),
								fmt.Sprint(tc.k+1), "FAIL", err.Error(), "-")
						}
						gerr := sim.CheckTask(task.NewSetAgreement(tc.n, tc.k), rep.GlobalResult)
						return Row(gerr != nil, fmt.Sprint(tc.n), fmt.Sprint(tc.k),
							fmt.Sprint(tc.k+1), fmt.Sprint(rep.SubsetOK),
							fmt.Sprint(rep.ExtractionOK), ok(gerr))
					},
				})
			}
			return cells
		},
	}
}

// expE9 validates §5: the pigeonhole collision, the reduction's safety, a
// concrete 2-concurrent violation, and Figure 3's structural guarantee.
func expE9() Experiment {
	return Experiment{
		ID:     "E9",
		Name:   "strong-renaming",
		Title:  "strong renaming is consensus-hard (Lemma 11 / Thm 12 / Cor 13)",
		Claim:  "solo collisions exist; candidate algorithms violate strong renaming 2-concurrently",
		Header: []string{"check", "j", "outcome"},
		Notes: []string{
			"Lemma 11 + Thm 12 imply no candidate can survive: strong renaming needs Ω (Cor 13)",
		},
		Cells: func(opt Options) []Cell {
			cells := []Cell{
				{
					Name: "pigeonhole",
					Run: func(*Trial) Outcome {
						a, b, name, err := wfree.PigeonholePair(3,
							func(i int) auto.Automaton { return wfree.NewRenaming(i) }, 100)
						if err != nil {
							return Row(true, "pigeonhole collision", "2", "FAIL: "+err.Error())
						}
						return Row(false, "pigeonhole collision", "2",
							fmt.Sprintf("p%d and p%d share solo name %d", a+1, b+1, name))
					},
				},
				{
					Name: "violation",
					Run: func(*Trial) Outcome {
						// Systematic search on the sim runtime.
						witness, _, verr := wfree.ExploreStrongRenamingViolation(2, 2, 12, 1)
						if verr != nil {
							return Row(true, "2-concurrent violation", "2", "FAIL: "+verr.Error())
						}
						return Row(false, "2-concurrent violation", "2", witness)
					},
				},
			}
			for _, j := range []int{3, 4} {
				cells = append(cells, Cell{
					Name: fmt.Sprintf("fig3/j=%d", j),
					Run: func(t *Trial) Outcome {
						kerr := fig3Check(j, t.Rng)
						return Row(kerr != nil,
							"Fig 3 wrapper: inner stays 2-concurrent, names ≤ j+1",
							fmt.Sprint(j), ok(kerr))
					},
				})
			}
			return cells
		},
	}
}

func fig3Check(j int, rng *rand.Rand) error {
	n := j + 1
	inputs := vec.New(n)
	autos := make([]auto.Automaton, n)
	wrappers := make([]*wfree.StrongRenaming, n)
	for i := 0; i < j; i++ {
		inputs[i] = i + 1
		wrappers[i] = wfree.NewStrongRenaming(i, j, wfree.NewRenaming(i))
		autos[i] = wrappers[i]
	}
	sys := auto.NewSystem(autos)
	for step := 0; step < 200_000 && !sys.AllDecided(); step++ {
		sys.Step(rng.Intn(j))
		active := 0
		for i := 0; i < j; i++ {
			if wrappers[i].InnerActive() {
				active++
			}
		}
		if active > 2 {
			return fmt.Errorf("inner concurrency %d", active)
		}
	}
	out := vec.New(n)
	for i := 0; i < j; i++ {
		d, okd := sys.Decided(i)
		if !okd {
			return fmt.Errorf("p%d undecided", i+1)
		}
		out[i] = d
	}
	return task.NewRenaming(n, j, j+1).Validate(inputs, out)
}

// expE10 regenerates the paper's diagonal: the Figure 4 name space grows as
// j+k−1 with the concurrency level k. One cell per (j, k) pair, each
// aggregating a sweep of seeded k-concurrent runs.
func expE10() Experiment {
	return Experiment{
		ID:     "E10",
		Name:   "renaming-diagonal",
		Title:  "Figure 4 name space vs concurrency (Thm 15): max name ≤ j+k−1",
		Claim:  "across seeded k-concurrent runs the largest decided name stays ≤ j+k−1",
		Header: []string{"j", "k", "bound j+k−1", "max observed", "runs", "ok"},
		Cells: func(opt Options) []Cell {
			js := []int{2, 3, 4, 5, 6}
			sweeps := 20
			if opt.Short {
				js = []int{2, 3, 4}
				sweeps = 5
			}
			var cells []Cell
			for _, j := range js {
				for k := 1; k <= j; k++ {
					cells = append(cells, Cell{
						Name: fmt.Sprintf("j=%d/k=%d", j, k),
						Run: func(t *Trial) Outcome {
							maxObserved, runs, bad := 0, 0, false
							for s := 0; s < sweeps; s++ {
								// j participants among j+1 slots; the last stays empty.
								autos := make([]auto.Automaton, j+1)
								for i := 0; i < j; i++ {
									autos[i] = wfree.NewRenaming(i)
								}
								sys := auto.NewSystem(autos)
								if sys.RunKConcurrentRandom(k, rand.New(rand.NewSource(t.Rng.Int63())), 300_000) != nil {
									bad = true
									continue
								}
								runs++
								for i := 0; i < j; i++ {
									if d, okd := sys.Decided(i); okd {
										if name, isInt := d.(int); isInt && name > maxObserved {
											maxObserved = name
										}
									}
								}
							}
							pass := !bad && maxObserved <= j+k-1
							return Row(!pass, fmt.Sprint(j), fmt.Sprint(k), fmt.Sprint(j+k-1),
								fmt.Sprint(maxObserved), fmt.Sprint(runs),
								map[bool]string{true: "ok", false: "FAIL"}[pass])
						},
					})
				}
			}
			return cells
		},
	}
}

// expE11 regenerates the Theorem 10 classification table. One cell per
// hierarchy level, plus the strong-renaming and identity rows.
func expE11() Experiment {
	const n = 5
	return Experiment{
		ID:     "E11",
		Name:   "hierarchy",
		Title:  "the task hierarchy (Thm 10): concurrency level ↦ weakest detector ¬Ωk",
		Claim:  "solvability at level k and violation at level k+1, per task",
		Header: []string{"task", "level k", "solvable @k", "violated @k+1", "weakest detector"},
		Cells: func(opt Options) []Cell {
			var cells []Cell
			for k := 1; k <= n-1; k++ {
				cells = append(cells, Cell{
					Name: fmt.Sprintf("kset/k=%d", k),
					Run: func(*Trial) Outcome {
						tk := task.NewSetAgreement(n, k)
						solveErr := solveKConc(tk, k)
						var o Outcome
						var vioMsg string
						if k < n-1 {
							w, err := wfree.KSetViolationAtKPlus1(n, k)
							if err != nil {
								vioMsg = "FAIL: " + err.Error()
								o.Failures++
							} else {
								vioMsg = w
							}
						} else {
							vioMsg = "n-set agreement is wait-free solvable (top of hierarchy)"
						}
						if solveErr != nil {
							o.Failures++
						}
						det := fmt.Sprintf("¬Ω%d", k)
						if k == 1 {
							det = "Ω (≡ ¬Ω1)"
						}
						o.Rows = [][]string{{tk.Name(), fmt.Sprint(k), ok(solveErr), vioMsg, det}}
						return o
					},
				})
			}
			cells = append(cells,
				Cell{
					Name: "strong-renaming",
					Run: func(*Trial) Outcome {
						// Strong renaming: level 1 (Thm 12), weakest detector Ω (Cor 13).
						srErr := solveKConc(task.NewStrongRenaming(n+1, n), 1)
						w, _, verr := wfree.ExploreStrongRenamingViolation(2, 2, 12, 1)
						if verr != nil {
							w = "FAIL: " + verr.Error()
						}
						return Row(srErr != nil || verr != nil, "strong-renaming", "1", ok(srErr), w, "Ω (Cor 13)")
					},
				},
				Cell{
					Name: "identity",
					Run: func(*Trial) Outcome {
						err := solveKConc(task.NewIdentity(n), n)
						return Row(err != nil, "identity", fmt.Sprint(n), ok(err),
							"none (wait-free solvable)", "trivial (Prop 2)")
					},
				},
			)
			return cells
		},
	}
}

// solveKConc checks the task's k-concurrent solvability with its canonical
// algorithm (Prop 1 for k = 1, the zoo algorithms otherwise).
func solveKConc(tk task.Sequential, k int) error {
	n := tk.N()
	inputs := vec.New(n)
	autos := make([]auto.Automaton, n)
	parts := 0
	for i := 0; i < n; i++ {
		if _, isRen := tk.(*task.Renaming); isRen && parts >= n-1 {
			break // renaming admits at most j = n−1 participants
		}
		inputs[i] = i + 1
		parts++
		switch tk.(type) {
		case *task.Agreement:
			if k == 1 {
				autos[i] = wfree.NewProp1(tk, i, inputs[i])
			} else {
				autos[i] = wfree.NewKSet(i, inputs[i])
			}
		case *task.Renaming:
			if k == 1 {
				autos[i] = wfree.NewProp1(tk, i, inputs[i])
			} else {
				autos[i] = wfree.NewRenaming(i)
			}
		default:
			autos[i] = wfree.NewProp1(tk, i, inputs[i])
		}
	}
	sys := auto.NewSystem(autos)
	if err := sys.RunKConcurrent(k, 300_000); err != nil {
		return err
	}
	out := vec.New(n)
	for i := 0; i < n; i++ {
		if d, okd := sys.Decided(i); okd {
			out[i] = d
		}
	}
	return tk.Validate(inputs, out)
}

// expE13 validates Lemma 11 by exhaustive schedule exploration: bounded
// sweeps of the Figure 4 algorithm's full schedule tree (systems of n ≤ 3
// register slots, 2 participants, hence 2-concurrent by construction) all
// expose the strong-renaming violation; the reports are worker-invariant;
// random witnesses shrink to the minimal core and replay exactly.
func expE13() Experiment {
	exhaust := func(name string, slots, depth int, noPrune bool) Cell {
		return Cell{
			Name: name,
			Run: func(*Trial) Outcome {
				spec := wfree.StrongRenamingSpec(slots, 2, 0)
				rep, err := explore.Explore(spec, explore.Options{
					MaxDepth: depth, Workers: 1, NoPrune: noPrune})
				if err != nil {
					return Row(true, name, fmt.Sprint(slots), fmt.Sprint(depth), "FAIL: "+err.Error(), "-", "-")
				}
				var outcome string
				fail := !rep.Exhausted || rep.Violations == 0
				if fail {
					outcome = fmt.Sprintf("FAIL (exhausted=%v violations=%d)", rep.Exhausted, rep.Violations)
				} else {
					outcome = rep.Witness[0].Err
				}
				return Row(fail, name, fmt.Sprint(slots), fmt.Sprint(depth),
					fmt.Sprint(rep.Runs), fmt.Sprint(rep.Violations), outcome)
			},
		}
	}
	return Experiment{
		ID:     "E13",
		Name:   "explore-strong-renaming",
		Title:  "exhaustive 2-concurrent strong-renaming violation (Lemma 11 via internal/explore)",
		Claim:  "every bounded sweep finds the violation; reports are worker-invariant; witnesses shrink ≥4x and replay",
		Header: []string{"cell", "n", "depth", "runs", "violations", "outcome"},
		Notes: []string{
			"sweeps are exhaustive at their depth: sleep sets and state hashing prune only redundant interleavings",
		},
		Cells: func(opt Options) []Cell {
			cells := []Cell{
				exhaust("exhaust/n=2", 2, 12, false),
				exhaust("raw-enum/n=2", 2, 12, true),
				exhaust("exhaust/n=3", 3, 15, false),
				{
					Name: "worker-invariance",
					Run: func(*Trial) Outcome {
						spec := wfree.StrongRenamingSpec(2, 2, 0)
						r1, err1 := explore.Explore(spec, explore.Options{MaxDepth: 12, Workers: 1})
						r8, err8 := explore.Explore(spec, explore.Options{MaxDepth: 12, Workers: 8})
						if err1 != nil || err8 != nil {
							return Row(true, "worker-invariance", "2", "12", "-", "-", fmt.Sprintf("FAIL: %v %v", err1, err8))
						}
						same := r1.Render() == r8.Render() && reflect.DeepEqual(r1, r8)
						return Row(!same, "worker-invariance", "2", "12", fmt.Sprint(r1.Runs), fmt.Sprint(r1.Violations),
							map[bool]string{true: "reports byte-identical for workers 1 and 8", false: "FAIL: reports differ"}[same])
					},
				},
				{
					Name: "shrink",
					Run: func(t *Trial) Outcome {
						spec := wfree.StrongRenamingSpec(2, 2, 2) // two idle S-processes pad random runs
						ro := explore.Sweep(explore.Uniform(spec), 120, t.Seed, 64, 1)
						if ro.Trace == nil {
							return Row(true, "shrink", "2", "-", "-", "-", fmt.Sprintf("FAIL: no random witness (%d hits)", ro.Hits))
						}
						sr, err := explore.Shrink(spec, ro.Trace.Schedule())
						if err != nil {
							return Row(true, "shrink", "2", "-", "-", "-", "FAIL: "+err.Error())
						}
						fail := sr.Ratio() > 0.25
						return Row(fail, "shrink", "2", "-", fmt.Sprint(sr.Runs), "1",
							fmt.Sprintf("%d steps -> %d (ratio %.2f ≤ 0.25)", sr.OriginalSteps, sr.ShrunkSteps, sr.Ratio()))
					},
				},
				{
					Name: "record-replay",
					Run: func(*Trial) Outcome {
						spec := wfree.StrongRenamingSpec(2, 2, 0)
						rep, err := explore.Explore(spec, explore.Options{MaxDepth: 12, Workers: 1, Mode: explore.ModeFirst})
						if err != nil || len(rep.Witness) == 0 {
							return Row(true, "record-replay", "2", "12", "-", "-", fmt.Sprintf("FAIL: no witness (err=%v)", err))
						}
						w := rep.Witness[0]
						tr := &explore.Trace{Spec: spec.Name, Meta: spec.Meta, Verdict: w.Err, Steps: w.Steps}
						back, err := explore.ParseTrace(tr.Format())
						if err != nil {
							return Row(true, "record-replay", "2", "12", "-", "-", "FAIL: parse: "+err.Error())
						}
						out, err := explore.ReplayTrace(spec, back)
						if err != nil || !out.Match {
							return Row(true, "record-replay", "2", "12", "-", "-",
								fmt.Sprintf("FAIL: replay (err=%v divergence=%s)", err, out.Divergence))
						}
						return Row(false, "record-replay", "2", "12", "1", "1",
							fmt.Sprintf("witness serialized, parsed and replayed to identical verdict (%d steps)", out.Steps))
					},
				},
			}
			return cells
		},
	}
}

// expE14 measures what the systematic explorer buys over the seeded random
// adversary on the k-set violation at level k+1 (Theorem 10's negative
// side): the exhaustive sweep certifies every bounded-depth violation while
// an equal budget of random runs only samples them.
func expE14() Experiment {
	return Experiment{
		ID:     "E14",
		Name:   "explore-kset-coverage",
		Title:  "k-set violation coverage at level k+1: exhaustive sweep vs random baseline",
		Claim:  "each sweep is exhausted and finds violations; the random baseline's hit rate is reported for the same run budget",
		Header: []string{"n", "k", "depth", "sweep runs", "violations", "random baseline", "ok"},
		Cells: func(opt Options) []Cell {
			grid := []struct{ slots, k, depth int }{
				{2, 1, 14}, {3, 1, 18},
			}
			if opt.Short {
				grid = grid[:1]
			}
			var cells []Cell
			for _, tc := range grid {
				cells = append(cells, Cell{
					Name: fmt.Sprintf("n=%d/k=%d", tc.slots, tc.k),
					Run: func(t *Trial) Outcome {
						spec := wfree.KSetSpec(tc.slots, tc.k+1, tc.k, 0)
						rep, err := explore.Explore(spec, explore.Options{MaxDepth: tc.depth, Workers: 1})
						if err != nil {
							return Row(true, fmt.Sprint(tc.slots), fmt.Sprint(tc.k), fmt.Sprint(tc.depth), "-", "-", "-", "FAIL: "+err.Error())
						}
						ro := explore.Sweep(explore.Uniform(spec), tc.depth, t.Seed, rep.Runs, 1)
						fail := !rep.Exhausted || rep.Violations == 0
						baseline := fmt.Sprintf("%d/%d hits (%.1f%%)", ro.Hits, ro.Tried, 100*float64(ro.Hits)/float64(ro.Tried))
						return Row(fail, fmt.Sprint(tc.slots), fmt.Sprint(tc.k), fmt.Sprint(tc.depth),
							fmt.Sprint(rep.Runs), fmt.Sprint(rep.Violations), baseline,
							map[bool]string{true: "FAIL", false: "ok"}[fail])
					},
				})
			}
			return cells
		},
	}
}

// expE12 validates the BG substrate: with k of k+1 simulators stalled
// mid-agreement, at least n−k codes keep progressing. One cell per (n, k)
// pair.
func expE12() Experiment {
	return Experiment{
		ID:     "E12",
		Name:   "bg-substrate",
		Title:  "BG-simulation blocking bound (substrate for Fig 1)",
		Claim:  "k stalled simulators block at most k codes",
		Header: []string{"codes n", "stalls k", "progressed", "≥ n−k", "ok"},
		Cells: func(opt Options) []Cell {
			grid := []struct{ n, k int }{{4, 1}, {5, 1}, {6, 2}, {8, 3}}
			if opt.Short {
				grid = grid[:3]
			}
			var cells []Cell
			for _, tc := range grid {
				cells = append(cells, Cell{
					Name: fmt.Sprintf("n=%d/k=%d", tc.n, tc.k),
					Run: func(*Trial) Outcome {
						m := tc.k + 1
						stats := bg.NewStats(tc.n)
						sims := make([]*bg.Simulator, m)
						autos := make([]auto.Automaton, m)
						for i := 0; i < m; i++ {
							sims[i] = bg.NewSimulator(i, m, tc.n,
								func(int) auto.Automaton { return auto.NewClock() }, stats)
							autos[i] = sims[i]
						}
						sys := auto.NewSystem(autos)
						stalled := true
						for i := 0; i < tc.k && stalled; i++ {
							stalled = false
							for s := 0; s < 200; s++ {
								sys.Step(i)
								if sims[i].HoldsLevel1() {
									sys.Step(i) // publish the level-1 entry
									stalled = true
									break
								}
							}
						}
						for s := 0; s < 30_000; s++ {
							sys.Step(tc.k)
						}
						progressed := 0
						for c := 0; c < tc.n; c++ {
							if stats.StepsOf[c] >= 50 {
								progressed++
							}
						}
						pass := stalled && progressed >= tc.n-tc.k
						return Row(!pass, fmt.Sprint(tc.n), fmt.Sprint(tc.k), fmt.Sprint(progressed),
							fmt.Sprint(tc.n-tc.k), map[bool]string{true: "ok", false: "FAIL"}[pass])
					},
				})
			}
			return cells
		},
	}
}
