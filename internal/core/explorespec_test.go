package core_test

import (
	"errors"
	"fmt"
	"regexp"
	"strings"
	"testing"

	"wfadvice/internal/core"
	"wfadvice/internal/explore"
	"wfadvice/internal/sim"
)

// TestExploreChaosScenario is the bounded-proof form of the chaos legality
// claim: every schedule of a consensus system under a flapping advice
// prefix, up to the horizon, satisfies ∆ — hostile advice may stall
// progress but can never make the algorithm decide wrongly. The window is
// tiny (flap:2, stabilize 4) so multiple coherent-but-wrong leader worlds
// fit inside the explorable depth.
func TestExploreChaosScenario(t *testing.T) {
	s, err := core.NewScenario(core.ScenarioParams{
		Task: "consensus", N: 2, Stabilize: 4, Chaos: "flap:2",
	})
	if err != nil {
		t.Fatal(err)
	}
	spec := s.ExploreSpec(7)
	depth := 8
	if testing.Short() {
		depth = 6
	}
	rep, err := explore.Explore(spec, explore.Options{MaxDepth: depth, Mode: explore.ModeExhaust})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Violations != 0 {
		t.Fatalf("chaos advice produced %d ∆ violations in %d runs; first: %+v",
			rep.Violations, rep.TotalRuns, rep.Witness)
	}
	if rep.TotalRuns == 0 {
		t.Fatal("explorer executed no runs")
	}
	if !rep.Exhausted {
		t.Fatalf("sweep did not exhaust the depth-%d tree", depth)
	}
}

// TestKVScenarioTraceReplays: a kv scenario's registers hold pointers — a
// request, a reply, a decided batch, a paxos block whose value is a batch —
// and a recorded run must still replay step for step, and its state render
// the same twice. Both hold only if every register value renders by content:
// fmt prints a pointer nested in a value by its address, which differs from
// run to run (%#v prints a small unsigned int in hex too, so an address is
// told by its length). A check that always fails makes the sweep record its
// run.
func TestKVScenarioTraceReplays(t *testing.T) {
	s, err := core.NewScenario(core.ScenarioParams{Task: "kv", N: 3, Stabilize: 20})
	if err != nil {
		t.Fatal(err)
	}
	spec := s.ExploreSpec(1)
	spec.Check = func(*sim.Result) error { return errors.New("recorded") }
	out := explore.Sweep(func(seed int64) (explore.Spec, sim.Scheduler) {
		return spec, &sim.StopWhenDecided{Inner: sim.NewRandom(seed)}
	}, 1_000_000, 1, 1, 1)
	if out.Trace == nil {
		t.Fatalf("the sweep recorded no trace: %v", out.Failure())
	}
	tr, err := explore.ParseTrace(out.Trace.Format())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := explore.ReplayTrace(spec, tr)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Match {
		t.Fatalf("the kv trace of %d steps does not replay: %s", len(tr.Steps), rep.Divergence)
	}

	render := func() string {
		rt, err := spec.New(len(tr.Steps) + 2)
		if err != nil {
			t.Fatal(err)
		}
		res := rt.Run(&sim.Replay{Seq: tr.Schedule()})
		var b strings.Builder
		for _, k := range sim.SortedStoreKeys(res.FinalStore) {
			fmt.Fprintf(&b, "%s=%#v;", k, res.FinalStore[k])
		}
		return b.String()
	}
	a, b := render(), render()
	if a != b {
		t.Fatal("two runs of one schedule render different states")
	}
	if addr := regexp.MustCompile(`0x[0-9a-f]{6,}`).FindString(a); addr != "" {
		t.Fatalf("a register value renders an address, %s: %s", addr, a)
	}
	for _, want := range []string{"&kv.Request{", "&kv.Reply{", "&kv.Batch{", "paxos.Block{MBal:1, Bal:1, Val:&kv.Batch{"} {
		if !strings.Contains(a, want) {
			t.Errorf("the final state holds no %s…", want)
		}
	}
}
