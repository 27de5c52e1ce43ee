package wfadvice_test

import (
	"testing"

	"wfadvice"
)

// TestFacadeConsensus drives the library exactly as README's quickstart
// does, through the public API only.
func TestFacadeConsensus(t *testing.T) {
	pattern := wfadvice.FailureFree(4)
	solver := wfadvice.DirectConfig{NC: 4, NS: 4, K: 1, LeaderVec: wfadvice.OmegaLeader}
	cfg := wfadvice.Config{
		NC: 4, NS: 4,
		Inputs:   wfadvice.VectorOf("a", "b", "c", "d"),
		CBody:    solver.DirectCBody,
		SBody:    solver.DirectSBody,
		Pattern:  pattern,
		History:  wfadvice.Omega{}.History(pattern, 200, 42),
		MaxSteps: 1_000_000,
	}
	rt, err := wfadvice.NewRuntime(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := rt.Run(&wfadvice.StopWhenDecided{Inner: &wfadvice.RoundRobin{}})
	if err := wfadvice.DecidedAll(res); err != nil {
		t.Fatal(err)
	}
	if err := wfadvice.CheckTask(wfadvice.NewConsensus(4), res); err != nil {
		t.Fatal(err)
	}
	if wfadvice.MaxConcurrency(res) < 1 {
		t.Fatal("no concurrency measured")
	}
}

// TestFacadeGenericSolver exercises the Theorem 9 machine and the
// Figure 4 automaton through the facade.
func TestFacadeGenericSolver(t *testing.T) {
	const n, j, k = 4, 3, 2
	machine := wfadvice.MachineConfig{
		NC: n, NS: n, K: k,
		Factory: func(i int, _ any) wfadvice.Automaton { return wfadvice.NewRenamingFig4(i) },
	}
	pattern := wfadvice.FailureFree(n)
	inputs := wfadvice.NewVector(n)
	for i := 0; i < j; i++ {
		inputs[i] = i + 1
	}
	cfg := wfadvice.Config{
		NC: n, NS: n, Inputs: inputs,
		CBody:    machine.SolverCBody,
		SBody:    machine.SolverSBody,
		Pattern:  pattern,
		History:  wfadvice.VectorOmegaK{K: k, GoodPos: 0}.History(pattern, 300, 5),
		MaxSteps: 5_000_000,
	}
	rt, err := wfadvice.NewRuntime(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := rt.Run(&wfadvice.StopWhenDecided{Inner: &wfadvice.RoundRobin{}})
	if err := wfadvice.DecidedAll(res); err != nil {
		t.Fatal(err)
	}
	if err := wfadvice.CheckTask(wfadvice.NewRenaming(n, j, j+k-1), res); err != nil {
		t.Fatal(err)
	}
}

// TestFacadeExtraction exercises the Figure 1 witness through the facade.
func TestFacadeExtraction(t *testing.T) {
	const n, k = 4, 1
	pattern := wfadvice.FailureFree(n)
	det := wfadvice.VectorOmegaK{K: k, GoodPos: 0, Pinned: true}
	dag := wfadvice.BuildDAG(pattern, det.History(pattern, 0, 1), wfadvice.RoundRobinSchedule(n, 50_000))
	res, err := wfadvice.ExtractWitness(wfadvice.WitnessConfig{
		Alg:     wfadvice.DirectSimAlg{NC: n, K: k},
		K:       k,
		DAG:     dag,
		Leaders: det.PinnedLeaders(pattern)[:k],
		Inputs:  wfadvice.VectorOf(1, 2, 3, 4),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := wfadvice.CheckAntiOmegaStream(res, pattern, 0.5); err != nil {
		t.Fatal(err)
	}
}

// TestFacadeExperiments ensures the harness is reachable from the facade.
func TestFacadeExperiments(t *testing.T) {
	xs := wfadvice.Experiments()
	if len(xs) != 14 {
		t.Fatalf("got %d experiments, want 14", len(xs))
	}
	tbl := wfadvice.NewExpEngine(wfadvice.ExpOptions{Seed: 1}).Run(xs[0]) // E1 is fast
	if tbl.ID != "E1" || len(tbl.Rows) == 0 || tbl.Failures != 0 {
		t.Fatalf("E1 produced %q with %d rows, %d failures", tbl.ID, len(tbl.Rows), tbl.Failures)
	}
}
