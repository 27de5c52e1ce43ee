package core

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"wfadvice/internal/explore"
	"wfadvice/internal/fdet"
	"wfadvice/internal/ids"
	"wfadvice/internal/native"
	"wfadvice/internal/sim"
	"wfadvice/internal/task"
	"wfadvice/internal/vec"
)

// directSpec is the direct solver on the sim backend, each run held to tk
// and wait-freedom.
func directSpec(nc, ns, k int, pat fdet.Pattern, det fdet.Detector, lv func(sim.Value) []int, tk task.Task) explore.Spec {
	inputs := vec.New(nc)
	for i := range inputs {
		inputs[i] = 100 + i
	}
	dc := DirectConfig{NC: nc, NS: ns, K: k, LeaderVec: lv}
	return explore.Spec{
		Name: fmt.Sprintf("direct/n=%d/k=%d", nc, k),
		New: func(maxSteps int) (*sim.Runtime, error) {
			return sim.New(sim.Config{
				NC: nc, NS: ns, Inputs: inputs,
				CBody: dc.DirectCBody, SBody: dc.DirectSBody,
				Pattern: pat, History: det.History(pat, 200, 7), MaxSteps: maxSteps,
			})
		},
		Check: func(res *sim.Result) error { return sim.Check(tk, res) },
	}
}

func TestDirectConsensusWithOmega(t *testing.T) {
	spec := directSpec(4, 4, 1, fdet.FailureFree(4), fdet.Omega{}, OmegaLeader, task.NewConsensus(4))
	out := explore.Sweep(func(seed int64) (explore.Spec, sim.Scheduler) {
		return spec, &sim.StopWhenDecided{Inner: sim.NewRandom(seed)}
	}, 300_000, 0, 10, 0)
	if err := out.Failure(); err != nil {
		t.Fatal(err)
	}
}

func TestDirectKSetWithVectorOmega(t *testing.T) {
	for _, k := range []int{1, 2, 3} {
		out := explore.Sweep(func(seed int64) (explore.Spec, sim.Scheduler) {
			det := fdet.VectorOmegaK{K: k, GoodPos: int(seed) % k}
			spec := directSpec(5, 5, k, fdet.FailureFree(5), det, VectorLeader, task.NewSetAgreement(5, k))
			return spec, &sim.StopWhenDecided{Inner: sim.NewRandom(seed)}
		}, 500_000, 0, 5, 0)
		if err := out.Failure(); err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
	}
}

func TestDirectToleratesSCrashes(t *testing.T) {
	// Crash every S-process except the advised leader q1 (pattern leaves q1
	// correct; min-correct leader is q1).
	pat := fdet.NewPattern(4, map[int]int{1: 50, 2: 80, 3: 10})
	spec := directSpec(4, 4, 1, pat, fdet.Omega{}, OmegaLeader, task.NewConsensus(4))
	rt, err := spec.New(300_000)
	if err != nil {
		t.Fatal(err)
	}
	if err := spec.Check(rt.Run(&sim.StopWhenDecided{Inner: &sim.RoundRobin{}})); err != nil {
		t.Fatal(err)
	}
}

func TestDirectWaitFreedomUnderCPause(t *testing.T) {
	// Pause p1 for a long window: everyone else must decide meanwhile, and
	// p1 must still decide after resuming — the headline wait-freedom claim.
	pat := fdet.FailureFree(3)
	inputs := vec.Of(1, 2, 3)
	dc := DirectConfig{NC: 3, NS: 3, K: 1, LeaderVec: OmegaLeader}
	cfg := sim.Config{
		NC: 3, NS: 3, Inputs: inputs,
		CBody:    dc.DirectCBody,
		SBody:    dc.DirectSBody,
		Pattern:  pat,
		History:  fdet.Omega{}.History(pat, 100, 3),
		MaxSteps: 400_000,
	}
	rt, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sched := &sim.PauseWindow{Proc: ids.C(0), From: 5, To: 150_000, Inner: &sim.RoundRobin{}}
	res := rt.Run(&sim.StopWhenDecided{Inner: sched})
	if err := sim.DecidedAll(res); err != nil {
		t.Fatal(err)
	}
	// p2 and p3 must have decided while p1 was paused.
	for _, e := range res.Trace {
		if e.Kind == sim.OpDecide && e.Proc != ids.C(0) && e.Step >= 150_000 {
			t.Fatalf("%v decided only after the pause window", e.Proc)
		}
	}
	if err := sim.CheckTask(task.NewConsensus(3), res); err != nil {
		t.Fatal(err)
	}
}

func TestSHelperSetAgreement(t *testing.T) {
	// Proposition 2 discussion: n S-processes solve n-set agreement with the
	// trivial detector, under any crashes that leave one S-process correct.
	for _, ns := range []int{1, 2, 3} {
		nc := 5
		pat := fdet.NewPattern(ns, map[int]int{})
		if ns > 1 {
			pat = fdet.NewPattern(ns, map[int]int{0: 20})
		}
		inputs := vec.New(nc)
		for i := range inputs {
			inputs[i] = i
		}
		sh := SHelperConfig{NC: nc, NS: ns}
		cfg := sim.Config{
			NC: nc, NS: ns, Inputs: inputs,
			CBody:    sh.SHelperCBody,
			SBody:    sh.SHelperSBody,
			Pattern:  pat,
			History:  fdet.Trivial{}.History(pat, 0, 1),
			MaxSteps: 100_000,
		}
		rt, err := sim.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res := rt.Run(&sim.StopWhenDecided{Inner: &sim.RoundRobin{}})
		if err := sim.DecidedAll(res); err != nil {
			t.Fatalf("ns=%d: %v", ns, err)
		}
		if err := sim.CheckTask(task.NewSetAgreement(nc, ns), res); err != nil {
			t.Fatalf("ns=%d: %v", ns, err)
		}
	}
}

func TestSeparationClassicalVsEFD(t *testing.T) {
	consensus2 := task.NewSubsetAgreement(2, 1, []int{0, 1})

	// Classical solvability: personified fair runs decide and agree, both
	// when q1 is correct and when q1 crashes (taking p1 with it).
	for name, pat := range map[string]fdet.Pattern{
		"q1-correct": fdet.FailureFree(2),
		"q1-faulty":  fdet.NewPattern(2, map[int]int{0: 0}),
	} {
		cfg := sim.Config{
			NC: 2, NS: 2, Inputs: vec.Of("a", "b"),
			CBody:    SeparationCBody(2),
			SBody:    SeparationSBody,
			Pattern:  pat,
			History:  fdet.FirstAlive{}.History(pat, 0, 1),
			MaxSteps: 50_000,
		}
		rt, err := sim.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res := rt.Run(&sim.StopWhenDecided{Inner: &sim.Personified{Pattern: pat, Inner: &sim.RoundRobin{}}})
		if err := sim.CheckTask(consensus2, res); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// Every C-process that kept taking steps must have decided.
		if err := sim.CheckWaitFree(res, 1000); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}

	// EFD failure witness: q1 correct, but p1 stops taking steps. p2 runs
	// forever and never decides — the algorithm does not EFD-solve the task.
	pat := fdet.FailureFree(2)
	cfg := sim.Config{
		NC: 2, NS: 2, Inputs: vec.Of("a", "b"),
		CBody:    SeparationCBody(2),
		SBody:    SeparationSBody,
		Pattern:  pat,
		History:  fdet.FirstAlive{}.History(pat, 0, 1),
		MaxSteps: 50_000,
	}
	rt, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := rt.Run(&sim.Exclude{Procs: []ids.Proc{ids.C(0)}, Inner: &sim.RoundRobin{}})
	if res.Outputs[1] != nil {
		t.Fatal("p2 decided although p1's input never appeared; witness broken")
	}
	if err := sim.CheckWaitFree(res, 1000); err == nil {
		t.Fatal("expected a wait-freedom violation witness, got none")
	}
}

// mallocsDuring is the number of heap objects the process allocated while f
// ran, the allocation budgets' currency.
func mallocsDuring(f func()) uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.Mallocs
	f()
	runtime.ReadMemStats(&ms)
	return ms.Mallocs - before
}

// TestOneShotAllocBudget holds a one-shot instance to what its protocol
// allocates: back-to-back consensus/n=4/omega/advice=event instances through
// the stress harness, one worker on one re-armed runtime, average at most 2.0
// heap objects per decision. It reads 1.6, and per instance of four decisions
// the terms are: the config's input clone and seeded history, 4; the blocks
// the proposers write, about 1 (a phase-2 block: phase-1 blocks are boxed
// once per round for the package, and a decision register stores the
// decided value's own box); and under 1 of lifecycle — the odd goroutine
// stack and wait-queue entry the Go runtime's caches miss. Nothing else is
// built per instance: the scenario's bodies are built once, the proposers
// live on the S-bodies' stacks, a collect fills its handle's own buffer, the
// handles, Envs, table, advice cells, notifier, timers and Result are kept
// across Reset, and a process unwinds off the heap. Under the race detector
// the same instance reads 5.9 to 8.2 over a dozen runs — it runs across more
// advice ticks and sync.Pool drops one Put in four, so a noisy publication
// rebuilds generators, four objects a decision of it — and the budget there
// is 10.
func TestOneShotAllocBudget(t *testing.T) {
	sc, err := NewScenario(ScenarioParams{Task: "consensus", N: 4, Stabilize: 10, Advice: "event"})
	if err != nil {
		t.Fatal(err)
	}
	mk := func(seed int64) (native.Config, error) { return sc.NativeConfig(seed, 0), nil }
	var mallocs uint64
	runs, decisions := 0, 0
	for seed := int64(1); runs < 200; seed++ {
		mallocs += mallocsDuring(func() {
			rep, err := native.Stress(sc.Name, sc.Task, mk, native.StressOptions{
				Duration: 100 * time.Millisecond, Workers: 1, Seed: seed,
			})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Failed() || rep.Decisions != rep.Runs*sc.NC {
				t.Fatalf("%d runs, %d decisions, %d violations, %d undecided", rep.Runs, rep.Decisions, rep.Violations, rep.Undecided)
			}
			runs += rep.Runs
			decisions += rep.Decisions
		})
	}
	budget := 2.0
	if raceDetector {
		budget = 10
	}
	per := float64(mallocs) / float64(decisions)
	t.Logf("%.1f mallocs per decision over %d instances", per, runs)
	if per > budget {
		t.Errorf("%.1f mallocs per decision, want ≤ %v", per, budget)
	}
}

// TestRearmedKSetResolvesNoKey: a native runtime re-armed for kset/n=6/k=5
// resolves no register key after its first run. The S-process binds its five
// consensus instances as one table, so every process's binds are hits of the
// bind memo (native.Env.Bind); an S-process that bound an instance a table
// made its fifth and sixth binds miss it and resolve their keys every run.
func TestRearmedKSetResolvesNoKey(t *testing.T) {
	sc, err := NewScenario(ScenarioParams{Task: "kset", N: 6, K: 5, Stabilize: 10})
	if err != nil {
		t.Fatal(err)
	}
	rt := new(native.Runtime)
	run := func(seed int64) {
		if err := rt.Reset(sc.NativeConfig(seed, 0)); err != nil {
			t.Fatal(err)
		}
		if res := rt.Run(time.Minute); res.Reason != native.ReasonAllDecided {
			t.Fatalf("seed %d: run ended %v", seed, res.Reason)
		}
	}
	run(1)
	before := native.Telemetry.Snapshot()
	for seed := int64(2); seed <= 6; seed++ {
		run(seed)
	}
	if n := native.Telemetry.Snapshot().Delta(before).Map()["store_shard_lookup"]; n != 0 {
		t.Errorf("five re-armed runs resolved %d keys, want 0", n)
	}
}

// TestDirectSharedKeyTablesSameSteps: a body built once, as a scenario builds
// it, keeps its key tables across runs and its per-run state inside the call,
// so its second run performs the identical (process, operation, key)
// sequence under the same script as bodies built for that run.
func TestDirectSharedKeyTablesSameSteps(t *testing.T) {
	const n = 4
	for _, k := range []int{1, 2} {
		lv, det := VectorLeader, fdet.Detector(fdet.VectorOmegaK{K: k, GoodPos: 0})
		if k == 1 {
			lv, det = OmegaLeader, fdet.Omega{}
		}
		pat := fdet.FailureFree(n)
		var script []ids.Proc
		for r := 0; r < 2000; r++ {
			for i := 0; i < n; i++ {
				// C-processes enter one after the other, S-processes interleave.
				script = append(script, ids.S((i+r)%n), ids.C(i), ids.S(i))
			}
		}
		steps := func(cbody, sbody func(int) sim.Body) []sim.Event {
			rt, err := sim.New(sim.Config{
				NC: n, NS: n, Inputs: intInputs(n),
				CBody: cbody, SBody: sbody,
				Pattern: pat, History: det.History(pat, 20, 5), MaxSteps: 100_000,
			})
			if err != nil {
				t.Fatal(err)
			}
			res := rt.Run(&sim.StopWhenDecided{Inner: &sim.Scripted{Seq: script}})
			if err := sim.DecidedAll(res); err != nil {
				t.Fatalf("k=%d: %v (reason %v after %d steps)", k, err, res.Reason, res.Steps)
			}
			return res.Trace
		}
		dc := DirectConfig{NC: n, NS: n, K: k, LeaderVec: lv}
		bare := steps(dc.DirectCBody, dc.DirectSBody)
		cbody, sbody := builtOnce(n, dc.DirectCBody), builtOnce(n, dc.DirectSBody)
		steps(cbody, sbody)
		shared := steps(cbody, sbody)
		if len(bare) != len(shared) {
			t.Fatalf("k=%d: %d steps with fresh bodies, %d with bodies built once", k, len(bare), len(shared))
		}
		for s := range bare {
			a, b := bare[s], shared[s]
			if a.Proc != b.Proc || a.Kind != b.Kind || a.Key != b.Key {
				t.Fatalf("k=%d step %d: %v %v %q with fresh bodies, %v %v %q with bodies built once",
					k, s, a.Proc, a.Kind, a.Key, b.Proc, b.Kind, b.Key)
			}
		}
	}
}
