package wfadvice_test

import (
	"testing"

	"wfadvice"
)

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
