package sim

import (
	"testing"

	"wfadvice/internal/fdet"
	"wfadvice/internal/ids"
	"wfadvice/internal/vec"
)

// TestStepAllocs is the zero-allocation guard on a scheduled step: a run
// pays for its processes, its Result and the growth of its trace, and
// nothing per step, under RoundRobin, Random, Bursty and every filtering
// combinator (a filter narrows the runtime's View in place). It measures whole
// runs of two lengths, so the per-run costs cancel and what is left is the
// steps' own: fewer than one allocation per hundred steps, which the
// trace's geometric growth stays well under. The race detector allocates on
// its own account, so the guard runs only without it.
func TestStepAllocs(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector allocates on its own account")
	}
	cfg := Config{
		NC: 3, NS: 1, Inputs: vec.Of(0, 1, 2),
		CBody: func(int) Body {
			return func(e Ops) {
				for {
					e.Write("x", e.Read("x"))
				}
			}
		},
		SBody: func(int) Body {
			return func(e Ops) {
				for {
					e.QueryFD()
				}
			}
		},
		Pattern: fdet.FailureFree(1),
	}
	for _, c := range []struct {
		name  string
		sched func() Scheduler
	}{
		{"round-robin", func() Scheduler { return &RoundRobin{} }},
		{"random", func() Scheduler { return NewRandom(1) }},
		{"kgate", func() Scheduler { return &KGate{K: 2, Inner: &RoundRobin{}} }},
		{"pause", func() Scheduler { return &PauseWindow{Proc: ids.C(0), From: 10, To: 100_000, Inner: &RoundRobin{}} }},
		{"exclude", func() Scheduler { return &Exclude{Procs: []ids.Proc{ids.C(1)}, Inner: &RoundRobin{}} }},
		{"personified", func() Scheduler {
			return &Personified{Pattern: fdet.NewPattern(3, map[int]fdet.Time{1: 0}), Inner: &RoundRobin{}}
		}},
		{"bursty", func() Scheduler { return &Bursty{Seed: 1, Burst: 5, FreezeProb: 0.5, FreezeLen: 50} }},
	} {
		allocs := func(steps int) float64 {
			cfg.MaxSteps = steps
			return testing.AllocsPerRun(5, func() {
				rt, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if res := rt.Run(c.sched()); res.Steps != steps {
					t.Fatalf("%s: run ended after %d steps (%v), want %d", c.name, res.Steps, res.Reason, steps)
				}
			})
		}
		const short, long = 1_000, 21_000
		perStep := (allocs(long) - allocs(short)) / (long - short)
		t.Logf("%s: %.3f allocations per scheduled step", c.name, perStep)
		if perStep >= 0.01 {
			t.Errorf("%s: %.3f allocations per scheduled step, want 0", c.name, perStep)
		}
	}
}
