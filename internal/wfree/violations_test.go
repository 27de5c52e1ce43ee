package wfree_test

import (
	"reflect"
	"strings"
	"testing"

	"wfadvice/internal/explore"
	"wfadvice/internal/sim"
	"wfadvice/internal/wfree"
)

func TestExploreStrongRenamingViolation(t *testing.T) {
	w, rep, err := wfree.ExploreStrongRenamingViolation(2, 2, 12, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(w, "explored:") {
		t.Fatalf("witness not from the systematic explorer: %q", w)
	}
	if rep.FoundDepth != 11 {
		t.Fatalf("minimal strong-renaming violation depth = %d, want 11", rep.FoundDepth)
	}
	if !strings.Contains(w, "name 3 outside 1..2") {
		t.Fatalf("unexpected witness: %q", w)
	}
}

func TestExploreKSetViolation(t *testing.T) {
	w, rep, err := wfree.ExploreKSetViolation(2, 1, 14, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(w, "explored:") {
		t.Fatalf("witness not from the systematic explorer: %q", w)
	}
	if rep.FoundDepth != 14 {
		t.Fatalf("minimal consensus violation depth = %d, want 14", rep.FoundDepth)
	}
	if !strings.Contains(w, "2 distinct decisions") {
		t.Fatalf("unexpected witness: %q", w)
	}
}

// TestExhaustiveSweepIsWorkerInvariant is the determinism contract on a
// real violation spec: the full exhaustive report must be byte-identical
// with 1 and 8 workers.
func TestExhaustiveSweepIsWorkerInvariant(t *testing.T) {
	spec := wfree.StrongRenamingSpec(2, 2, 0)
	opt := explore.Options{MaxDepth: 12}
	opt.Workers = 1
	r1, err := explore.Explore(spec, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Workers = 8
	r8, err := explore.Explore(spec, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1, r8) {
		t.Fatalf("reports differ across workers:\n%s\n%s", r1.Render(), r8.Render())
	}
	if !r1.Exhausted || r1.Violations == 0 {
		t.Fatalf("want an exhausted sweep with violations: %s", r1.Render())
	}
}

// TestKSetSweepCounts pins the depth-20 sweep of 2-set agreement among 3
// of 4 slots — the explorer's baseline row (benchmark/README.md, ROADMAP
// item 2): the numbers of an exhaustive, violation-free sweep are a function
// of the spec and the horizon alone, whatever the worker count. Sleep sets
// and state hashes are computed from pending operations, so the counts move
// if a process ever announces its next operation at a different point.
func TestKSetSweepCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("two 60 370-run sweeps")
	}
	want := explore.Stats{Runs: 60_370, DedupHits: 2_313, SleepPrunes: 63_893}
	for _, workers := range []int{1, 8} {
		rep, err := explore.Explore(wfree.KSetSpec(4, 3, 2, 0), explore.Options{MaxDepth: 20, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Stats != want || !rep.Exhausted {
			t.Errorf("workers=%d: want exhausted with %+v, got:\n%s", workers, want, rep.Render())
		}
	}
}

// TestShrinkRenamingViolation covers the acceptance bar: a long random
// violating trace (noise-padded by idle S-processes) must shrink to at most
// a quarter of its executed steps, and the shrunk trace must replay to the
// identical verdict.
func TestShrinkRenamingViolation(t *testing.T) {
	spec := wfree.StrongRenamingSpec(2, 2, 2)
	ro, err := explore.RandomSearch(spec, 120, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ro.Hits == 0 {
		t.Fatal("no violating random run in 64 seeds")
	}
	sr, err := explore.Shrink(spec, ro.Schedule)
	if err != nil {
		t.Fatal(err)
	}
	if sr.Ratio() > 0.25 {
		t.Fatalf("shrink ratio %.2f > 0.25 (%d -> %d steps)", sr.Ratio(), sr.OriginalSteps, sr.ShrunkSteps)
	}
	// The minimal witness is 11 steps (p1's write, then p2's three
	// write+collect rounds and its decide); locally minimal must match it.
	if sr.ShrunkSteps != 11 {
		t.Fatalf("shrunk to %d steps, want the minimal 11", sr.ShrunkSteps)
	}
	out, err := explore.ReplayTrace(spec, sr.Trace)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Match {
		t.Fatalf("shrunk trace does not replay: %s", out.Divergence)
	}
	if out.Verdict == explore.VerdictOK {
		t.Fatal("shrunk trace verdict is ok")
	}
}

func TestCheckPredicates(t *testing.T) {
	spec := wfree.StrongRenamingSpec(3, 2, 0)
	rt, err := spec.New(200)
	if err != nil {
		t.Fatal(err)
	}
	// A 1-concurrent run decides names in {1,2} (strong renaming is
	// 1-concurrently solvable); the renaming predicate must accept it, while
	// the same two distinct decisions are a 1-set agreement violation. A
	// 2-concurrent fair run would violate — that is Lemma 11 itself.
	res := rt.Run(&sim.StopWhenDecided{Inner: &sim.KGate{K: 1, Inner: &sim.RoundRobin{}}})
	if verr := spec.Check(res); verr != nil {
		t.Fatalf("fair run flagged: %v", verr)
	}
	if derr := wfree.CheckKSetDecisions(res, 1); derr == nil {
		t.Fatal("two distinct names must violate 1-set agreement")
	}
}
