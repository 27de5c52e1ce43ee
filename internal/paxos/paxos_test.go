package paxos

import (
	"fmt"
	"testing"

	"wfadvice/internal/explore"
	"wfadvice/internal/fdet"
	"wfadvice/internal/sim"
	"wfadvice/internal/vec"
)

// sweepProposers runs n processes, each driving one instance to decision on
// its proposal "v<i>" and believing itself the leader at its step-th step
// exactly when lead(i, step) holds, under the uniform scheduler for the
// seeds 0..seeds-1, and fails t with the lowest seed whose run check
// rejects.
func sweepProposers(t *testing.T, n, seeds, maxSteps int, lead func(i, step int) bool, check func(res *sim.Result) error) {
	t.Helper()
	inputs := vec.New(n)
	for i := range inputs {
		inputs[i] = i
	}
	body := func(i int) sim.Body {
		return func(e sim.Ops) {
			p := BoundProposer(e.Bind(InstanceKeys("inst", n)), 0, i, n, fmt.Sprintf("v%d", i))
			for step := 1; ; step++ {
				if v, ok := p.StepOp(lead(i, step)); ok {
					e.Decide(v)
					return
				}
			}
		}
	}
	spec := explore.Spec{
		Name: "paxos",
		New: func(maxSteps int) (*sim.Runtime, error) {
			return sim.New(sim.Config{NC: n, Inputs: inputs, CBody: body, Pattern: fdet.FailureFree(0), MaxSteps: maxSteps})
		},
		Check: check,
	}
	if err := explore.Sweep(explore.Uniform(spec), maxSteps, 0, seeds, 0).Failure(); err != nil {
		t.Fatal(err)
	}
}

// always is the adversarial multi-leader case, in which only safety matters.
func always(int, int) bool { return true }

// decidedAll checks that every process decided want.
func decidedAll(want Value) func(*sim.Result) error {
	return func(res *sim.Result) error {
		for i, v := range res.Outputs {
			if v != want {
				return fmt.Errorf("p%d decided %v, want %v", i+1, v, want)
			}
		}
		return nil
	}
}

func TestAgreementUnderContention(t *testing.T) {
	// A run may end with no decision at all under contention: safety only.
	sweepProposers(t, 4, 30, 200_000, always, func(res *sim.Result) error {
		var first Value
		for i, v := range res.Outputs {
			if v == nil {
				continue
			}
			if first == nil {
				first = v
			}
			if v != first {
				return fmt.Errorf("p%d decided %v, others %v", i+1, v, first)
			}
		}
		return nil
	})
}

func TestValidity(t *testing.T) {
	sweepProposers(t, 3, 20, 100_000, always, func(res *sim.Result) error {
		for i, v := range res.Outputs {
			if s, ok := v.(string); v != nil && (!ok || len(s) < 2 || s[0] != 'v') {
				return fmt.Errorf("p%d decided non-proposal %v", i+1, v)
			}
		}
		return nil
	})
}

func TestSoloProposerDecides(t *testing.T) {
	sweepProposers(t, 1, 1, 1000, always, func(res *sim.Result) error {
		if err := decidedAll("v0")(res); err != nil {
			return err
		}
		// The decision register holds the decided value itself.
		if v := res.FinalStore[DecKey("inst")]; v != "v0" {
			return fmt.Errorf("decision register holds %#v, want the proposal", v)
		}
		return nil
	})
}

func TestStableLeaderDecides(t *testing.T) {
	// Everyone runs, but only p1 believes it leads: must decide, and all
	// others adopt via the decision register.
	sweepProposers(t, 4, 10, 50_000, func(i, _ int) bool { return i == 0 }, decidedAll("v0"))
}

func TestLateLeaderAdoptsEarlierValue(t *testing.T) {
	// p1 leads alone for a while; then p2 takes over. Whatever decides must
	// be a single value even across the handover.
	lead := func(i, step int) bool { return (i == 0 && step < 40) || (i == 1 && step >= 10) }
	sweepProposers(t, 2, 20, 100_000, lead, func(res *sim.Result) error {
		if a, b := res.Outputs[0], res.Outputs[1]; a != nil && b != nil && a != b {
			return fmt.Errorf("split decision %v vs %v", a, b)
		}
		return nil
	})
}
