package core

import (
	"fmt"
	"hash/fnv"
	"testing"

	"wfadvice/internal/auto"
	"wfadvice/internal/explore"
	"wfadvice/internal/fdet"
	"wfadvice/internal/ids"
	"wfadvice/internal/paxos"
	"wfadvice/internal/sim"
	"wfadvice/internal/task"
	"wfadvice/internal/vec"
	"wfadvice/internal/wfree"
)

// solverSpec is the Theorem 9 machine over factory's automata on the sim
// backend under vector-Ωk advice (good position good, history seed seed),
// each run held to tk, wait-freedom and a k-concurrent simulated run.
func solverSpec(nc, ns, k int, factory func(int, sim.Value) auto.Automaton,
	inputs vec.Vector, pat fdet.Pattern, good int, seed int64, tk task.Task) explore.Spec {
	mc := MachineConfig{NC: nc, NS: ns, K: k, Factory: factory}
	return explore.Spec{
		Name: fmt.Sprintf("machine/n=%d/k=%d", nc, k),
		New: func(maxSteps int) (*sim.Runtime, error) {
			return sim.New(sim.Config{
				NC: nc, NS: ns, Inputs: inputs,
				CBody: mc.SolverCBody, SBody: mc.SolverSBody, Pattern: pat,
				History:  fdet.VectorOmegaK{K: k, GoodPos: good}.History(pat, 300, seed),
				MaxSteps: maxSteps,
			})
		},
		Check: func(res *sim.Result) error {
			if err := sim.Check(tk, res); err != nil {
				return err
			}
			if b := mc.Replay(res.FinalStore).ConcurrencyBound(); b > k {
				return fmt.Errorf("simulated concurrency bound %d > k=%d", b, k)
			}
			return nil
		},
	}
}

// solveOnce runs spec round-robin and fails t unless the run passes its check.
func solveOnce(t *testing.T, spec explore.Spec, maxSteps int) {
	t.Helper()
	rt, err := spec.New(maxSteps)
	if err != nil {
		t.Fatal(err)
	}
	if err := spec.Check(rt.Run(&sim.StopWhenDecided{Inner: &sim.RoundRobin{}})); err != nil {
		t.Fatal(err)
	}
}

func ksetFactory(i int, input sim.Value) auto.Automaton { return wfree.NewKSet(i, input) }

func renamingFactory(i int, _ sim.Value) auto.Automaton { return wfree.NewRenaming(i) }

func TestSolverKSetAgreement(t *testing.T) {
	for _, k := range []int{1, 2} {
		out := explore.Sweep(func(seed int64) (explore.Spec, sim.Scheduler) {
			spec := solverSpec(4, 4, k, ksetFactory, vec.Of(10, 11, 12, 13), fdet.FailureFree(4),
				int(seed)%k, seed, task.NewSetAgreement(4, k))
			return spec, &sim.StopWhenDecided{Inner: sim.NewRandom(seed)}
		}, 3_000_000, 0, 3, 0)
		if err := out.Failure(); err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
	}
}

func TestSolverRenaming(t *testing.T) {
	// Theorem 16: (j, j+k−1)-renaming with vector-Ωk; j participants out of
	// n C-processes.
	nc, j, k := 5, 4, 2
	inputs := vec.New(nc)
	for i := 0; i < j; i++ {
		inputs[i] = i + 1 // identities; the last process stays out
	}
	solveOnce(t, solverSpec(nc, nc, k, renamingFactory, inputs, fdet.FailureFree(nc), 0, 11,
		task.NewRenaming(nc, j, j+k-1)), 4_000_000)
}

func TestSolverToleratesSCrashes(t *testing.T) {
	// q2, q3 crash; q1 is the stabilized leader.
	pat := fdet.NewPattern(3, map[int]int{1: 100, 2: 400})
	solveOnce(t, solverSpec(3, 3, 1, ksetFactory, vec.Of(5, 6, 7), pat, 0, 21, task.NewConsensus(3)), 3_000_000)
}

func TestSolverWaitFreeUnderCPause(t *testing.T) {
	if testing.Short() {
		t.Skip("long pause window; the E5 pause cell covers this in -short")
	}
	// Pause p1 for a long window: its code is driven by the others, so when
	// it resumes it finds the decision; meanwhile the rest decide.
	nc, k := 3, 2
	inputs := vec.Of(1, 2, 3)
	mc := MachineConfig{NC: nc, NS: nc, K: k, Factory: ksetFactory}
	pat := fdet.FailureFree(nc)
	cfg := sim.Config{
		NC: nc, NS: nc, Inputs: inputs,
		CBody:    mc.SolverCBody,
		SBody:    mc.SolverSBody,
		Pattern:  pat,
		History:  fdet.VectorOmegaK{K: k, GoodPos: 1}.History(pat, 300, 5),
		MaxSteps: 5_000_000,
	}
	rt, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const pauseEnd = 400_000
	sched := &sim.PauseWindow{Proc: ids.C(0), From: 10, To: pauseEnd, Inner: &sim.RoundRobin{}}
	res := rt.Run(&sim.StopWhenDecided{Inner: sched})
	if err := sim.DecidedAll(res); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < nc; i++ {
		for _, e := range res.Trace {
			if e.Kind == sim.OpDecide && e.Proc == ids.C(i) && e.Step >= pauseEnd {
				t.Fatalf("p%d decided only after the pause window", i+1)
			}
		}
	}
	if err := sim.CheckTask(task.NewSetAgreement(nc, k), res); err != nil {
		t.Fatal(err)
	}
}

func TestLanesTheorem14(t *testing.T) {
	if testing.Short() {
		t.Skip("long lanes sweep; the E4 cells cover this in -short")
	}
	// Figure 2 / Theorem 14: simulate K clock codes; with ℓ participating
	// simulators, at most min(K, ℓ) codes take steps and at least one makes
	// unbounded progress (the stabilized vector position's code).
	for _, tc := range []struct{ nc, k, ell int }{
		{4, 2, 4}, // ℓ > k: positions ruled by vector-Ωk
		{4, 2, 1}, // ℓ ≤ k: smallest participants lead
		{5, 3, 2},
	} {
		inputs := vec.New(tc.nc)
		for i := 0; i < tc.ell; i++ {
			inputs[i] = 1 // participation token
		}
		mc := MachineConfig{NC: tc.nc, NS: tc.nc, K: tc.k, Lanes: true,
			Factory: func(i int, _ sim.Value) auto.Automaton { return auto.NewClock() }}
		pat := fdet.FailureFree(tc.nc)
		cfg := sim.Config{
			NC: tc.nc, NS: tc.nc, Inputs: inputs,
			CBody:    mc.SolverCBody,
			SBody:    mc.SolverSBody,
			Pattern:  pat,
			History:  fdet.VectorOmegaK{K: tc.k, GoodPos: 0}.History(pat, 200, 3),
			MaxSteps: 400_000,
		}
		rt, err := sim.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res := rt.Run(&sim.RoundRobin{})
		tr := mc.Replay(res.FinalStore)
		limit := tc.k
		if tc.ell < limit {
			limit = tc.ell
		}
		progressed := 0
		for a, s := range tr.CellSteps {
			if a >= limit && s > 0 {
				t.Fatalf("nc=%d k=%d ell=%d: code %d beyond min(k,ℓ)=%d took %d steps",
					tc.nc, tc.k, tc.ell, a, limit, s)
			}
			if s > 0 {
				progressed++
			}
		}
		if progressed == 0 {
			t.Fatalf("nc=%d k=%d ell=%d: no simulated code progressed", tc.nc, tc.k, tc.ell)
		}
		best := 0
		for _, s := range tr.CellSteps {
			if s > best {
				best = s
			}
		}
		if best < 50 {
			t.Fatalf("nc=%d k=%d ell=%d: best code advanced only %d steps", tc.nc, tc.k, tc.ell, best)
		}
	}
}

// TestMachineStepShape pins the machine's exact sim step shape — every
// event's process, kind and register key, hashed in trace order — on one
// solver run and one lanes run, beyond the summaries the experiment tables
// pin. A change to how the machine mints or names its consensus instances
// must leave these values alone; a change to its operations re-measures
// them.
func TestMachineStepShape(t *testing.T) {
	pat := fdet.FailureFree(4)
	inputs := vec.Of(1, 2, 3, nil)
	for _, tc := range []struct {
		name     string
		lanes    bool
		factory  func(int, sim.Value) auto.Automaton
		sched    sim.Scheduler
		maxSteps int
		events   int
		digest   uint64
		outputs  string
		admitted int
		cells    string
	}{
		{"solver", false, renamingFactory, &sim.StopWhenDecided{Inner: &sim.RoundRobin{}}, 2_000_000,
			5808, 0x47c90d7dfe0a3227, "[1 3 2 ⊥]", 3, "map[0:2 1:3 2:3]"},
		{"lanes", true, func(int, sim.Value) auto.Automaton { return auto.NewClock() }, &sim.RoundRobin{}, 40_000,
			40_000, 0xbae3e8816fdb3b55, "[⊥ ⊥ ⊥ ⊥]", 0, "map[0:61 1:0]"},
	} {
		mc := MachineConfig{NC: 4, NS: 4, K: 2, Factory: tc.factory, Lanes: tc.lanes}
		rt, err := sim.New(sim.Config{
			NC: 4, NS: 4, Inputs: inputs,
			CBody: mc.SolverCBody, SBody: mc.SolverSBody, Pattern: pat,
			History:  fdet.VectorOmegaK{K: 2, GoodPos: 0}.History(pat, 300, 1),
			MaxSteps: tc.maxSteps,
		})
		if err != nil {
			t.Fatal(err)
		}
		res := rt.Run(tc.sched)
		h := fnv.New64a()
		for _, ev := range res.Trace {
			fmt.Fprintf(h, "%v %d %s\n", ev.Proc, ev.Kind, ev.Key)
		}
		tr := mc.Replay(res.FinalStore)
		got := fmt.Sprintf("events=%d digest=%#x outputs=%v admitted=%d cells=%v",
			len(res.Trace), h.Sum64(), res.Outputs, len(tr.Admissions), tr.CellSteps)
		want := fmt.Sprintf("events=%d digest=%#x outputs=%s admitted=%d cells=%s",
			tc.events, tc.digest, tc.outputs, tc.admitted, tc.cells)
		if got != want {
			t.Errorf("%s:\n got %s\nwant %s", tc.name, got, want)
		}
	}
}

// TestLeaderIsAllocs: the leader rule, which every replica evaluates on every
// step, counts the participants in place and allocates nothing, on both of
// its branches: the pos-th participant while at most K participate, the
// advice vector's position otherwise.
func TestLeaderIsAllocs(t *testing.T) {
	p := new(paxos.Proposer) // round 0: attempt 0
	for _, tc := range []struct {
		inputs vec.Vector
		me     int
		base   int
		want   bool
	}{
		{vec.Of(nil, 2, 3, nil), 2, 1, true},  // pos 1 of participants 1, 2
		{vec.Of(nil, 2, 3, nil), 1, 1, false}, // participant 1 is pos 0
		{vec.Of(1, 2, 3, nil), 5, 1, true},    // three participants: ovec[1] = S1 leads
		{vec.Of(1, 2, 3, nil), 1, 1, false},
	} {
		r := &replica{cfg: MachineConfig{NC: 4, NS: 4, K: 2}, me: tc.me, inputs: tc.inputs, ovec: []int{0, 1}}
		var lead bool
		if n := testing.AllocsPerRun(100, func() { lead = r.leaderIs(tc.base, p) }); n != 0 {
			t.Errorf("inputs %v: leaderIs allocated %v objects a call, want 0", tc.inputs, n)
		}
		if lead != tc.want {
			t.Errorf("inputs %v, me %d: leaderIs = %v, want %v", tc.inputs, tc.me, lead, tc.want)
		}
	}
}
