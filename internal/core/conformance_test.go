package core_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"wfadvice/internal/core"
	"wfadvice/internal/explore"
	"wfadvice/internal/fdet"
	"wfadvice/internal/native"
	"wfadvice/internal/sim"
	"wfadvice/internal/vec"
)

// Cross-backend conformance: every core.Scenario body set runs on the
// lockstep sim runtime and on the native goroutine runtime from one
// table-driven test, and the two backends must agree on the verdicts —
// every participant decides and the decision vector satisfies the task's ∆
// on both, so a backend divergence fails tier-1.
//
// Decision *values* are intentionally not compared across backends: both
// runtimes execute the same nondeterministic algorithms under different
// interleavings and advice timings, so each may settle on any ∆-valid
// outcome (e.g. either proposed value in consensus). What must be identical
// is the verdict structure — decided-all plus ∆ — which is exactly the
// paper's correctness obligation, checked per backend by the same task.

// Since PR 5 every scenario body in the zoo runs its hot loops on bound
// register handles (sim.Ops.Bind → sim.Regs): the direct solver's decision
// sweeps and input harvest, every paxos instance, the Theorem 9 replica's
// bookkeeping polls, the S-helper scans and auto.RunOnEnv collects. The
// grid below therefore exercises the Bind/Regs path end to end on both
// backends with matching verdicts; TestBindConformance additionally drives
// the full Regs surface (typed and generic ops, mixed representations)
// through a dedicated body whose decisions are deterministic and must be
// identical across backends.

// conformanceGrid covers every task in the scenario zoo, both detector
// families with consuming algorithms, crash injection, and both advice
// modes (the two ways a native poller waits). The advice=event rows run the
// sim backend on the identical discrete clock as their tick twins (the mode
// only changes how native processes wait), so they pin down exactly the claim
// of the design: wakeup timing moves, verdicts do not.
func conformanceGrid() []core.ScenarioParams {
	return []core.ScenarioParams{
		{Task: "consensus", N: 3, Stabilize: 20},
		{Task: "kset", N: 4, K: 1, Stabilize: 20},
		{Task: "consensus", N: 4, Crash: 1, CrashAt: 30, Stabilize: 20},
		{Task: "kset", N: 4, K: 2, Stabilize: 20},
		{Task: "kset", N: 5, K: 2, Crash: 1, CrashAt: 30, Stabilize: 20},
		{Task: "nset", N: 4, Stabilize: 1},
		{Task: "prop1", N: 3, Stabilize: 20},
		{Task: "renaming", N: 4, J: 3, K: 2, Stabilize: 20},
		{Task: "consensus", N: 3, Stabilize: 20, Advice: "event"},
		{Task: "consensus", N: 4, Crash: 1, CrashAt: 30, Stabilize: 20, Advice: "event"},
		{Task: "kset", N: 4, K: 2, Stabilize: 20, Advice: "event"},
		{Task: "renaming", N: 4, J: 3, K: 2, Stabilize: 20, Advice: "event"},
		// The kv scenario's ∆ is linearizability of the clerk sessions:
		// small scripts keep the history inside the trustless DFS search,
		// so both backends' session sets are certified linearizable, not
		// just replay-consistent. The crash row kills the acting leader
		// (kv crashes lowest indices; LiveOmega advises the lowest live
		// replica) and exercises re-proposal plus (client,seq) dedup.
		{Task: "kv", N: 3, Stabilize: 20},
		{Task: "kv", N: 3, Crash: 1, CrashAt: 30, Stabilize: 20},
		{Task: "kv", N: 3, Stabilize: 20, Advice: "event"},
		// Adversarial advice rows: a hostile pre-stabilization schedule may
		// stall progress but must change no verdict on either backend. The
		// storm row compresses the crash schedule so replicas die back to
		// back while the advice is still flapping.
		{Task: "consensus", N: 3, Stabilize: 24, Chaos: "flap:4"},
		{Task: "consensus", N: 4, Crash: 2, CrashAt: 30, Stabilize: 24, Storm: true, Chaos: "flap:4"},
		{Task: "kset", N: 4, K: 2, Stabilize: 24, Chaos: "diverge:4"},
		{Task: "kv", N: 3, Stabilize: 24, Chaos: "flap:4"},
		{Task: "kv", N: 3, Crash: 1, CrashAt: 30, Stabilize: 24, Chaos: "lie:4"},
		// Scale rows (full run only): 2n goroutines per native instance and
		// n-key collects on the direct solvers.
		{Task: "consensus", N: 16, Stabilize: 20},
		{Task: "kset", N: 16, K: 4, Stabilize: 20},
		{Task: "consensus", N: 32, Stabilize: 20},
	}
}

func TestBackendConformance(t *testing.T) {
	grid := conformanceGrid()
	seeds := 2
	if testing.Short() {
		grid = []core.ScenarioParams{grid[0], grid[2], grid[3], grid[5], grid[6], grid[8], grid[12], grid[15], grid[18]}
		seeds = 1
	}
	for _, p := range grid {
		s, err := core.NewScenario(p)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(s.Name, func(t *testing.T) {
			for sd := 0; sd < seeds; sd++ {
				seed := int64(100 + sd)
				simDecs, err := runSimBackend(s, seed)
				if err != nil {
					t.Fatalf("seed %d: sim backend: %v", seed, err)
				}
				natDecs, err := runNativeBackend(s, seed)
				if err != nil {
					t.Fatalf("seed %d: native backend: %v", seed, err)
				}
				// Verdict agreement holds; both decision sets additionally
				// must respect the same distinct-value budget (k for the
				// agreement tasks), which ∆ already enforces — asserting it
				// here keeps the conformance failure message symmetric when
				// one backend regresses.
				if simDecs.Count() != natDecs.Count() {
					t.Fatalf("seed %d: sim decided %d processes, native %d", seed, simDecs.Count(), natDecs.Count())
				}
			}
		})
	}
	// One row under the hostile scheduler, on a machine it is clean on (k = 1;
	// TestMachineStaleViewKnownIssue is why not the k = 2 renaming row). It
	// is sim-only, its native half being the prop1 row above, and a seed
	// sweep: tier-1 runs its first 24 seeds, BenchmarkSweepBursty the rest.
	t.Run("prop1/n=3/vector/sched=bursty", func(t *testing.T) {
		if err := sweepBursty(t, burstyProp1, 100, 24).Failure(); err != nil {
			t.Fatal(err)
		}
	})
}

// burstyProp1 is the grid's hostile-scheduler row.
var burstyProp1 = core.ScenarioParams{Task: "prop1", N: 3, Stabilize: 20}

// BenchmarkSweepBursty is the wide range of the bursty conformance row: b.N
// seeds from 100 (CI runs it with -benchtime 200x).
func BenchmarkSweepBursty(b *testing.B) {
	if err := sweepBursty(b, burstyProp1, 100, b.N).Failure(); err != nil {
		b.Fatal(err)
	}
}

// sweepBursty runs scenario p on the sim backend under the bursty scheduler,
// bursts of 40 steps on average and a quarter of the switched-out processes
// frozen for up to 1 600 scheduler calls — long enough for a replica to wake
// holding a view that predates whole decided cells. Each seed's run is held
// to ∆ and wait-freedom.
func sweepBursty(tb testing.TB, p core.ScenarioParams, from int64, seeds int) *explore.SweepOutcome {
	tb.Helper()
	s, err := core.NewScenario(p)
	if err != nil {
		tb.Fatal(err)
	}
	return explore.Sweep(func(seed int64) (explore.Spec, sim.Scheduler) {
		bursty := &sim.Bursty{Seed: seed, Burst: 40, FreezeProb: 0.25, FreezeLen: 1600}
		return s.ExploreSpec(seed), &sim.StopWhenDecided{Inner: bursty}
	}, 6_000_000, from, seeds, 0)
}

// TestMachineStaleViewKnownIssue pins ROADMAP item 1 on the grid's own k = 2
// row: under the bursty scheduler six of the seeds 1…2 500 decide one name
// twice, and this sweep starts at the first of them, 136. While that
// reproduces the test skips, naming the seed; once the machine is fixed the
// same seeds run to a clean verdict and this is the regression test,
// unedited.
func TestMachineStaleViewKnownIssue(t *testing.T) {
	out := sweepBursty(t, core.ScenarioParams{Task: "renaming", N: 4, J: 3, K: 2, Stabilize: 20}, 136, 24)
	if strings.Contains(out.Err, "violates ∆") {
		t.Skipf("ROADMAP item 1: k ≥ 2 machine decides a stale view (%v)", out.Failure())
	}
	if err := out.Failure(); err != nil {
		t.Fatal(err)
	}
}

// TestBindConformance runs one body set — exercising every Regs operation:
// typed writes and reads, generic writes of small ints, large ints and
// structs, and full-table collects into reused buffers — on both backends.
// The bodies are write-then-poll with no races on distinct slots, so the
// decisions are fully deterministic and must be byte-equal across backends,
// a stronger check than the verdict agreement of the scenario grid.
func TestBindConformance(t *testing.T) {
	type mark struct{ From, Big int }
	const n = 3
	keys := make([]string, 2*n)
	for i := 0; i < n; i++ {
		keys[i] = fmt.Sprintf("slot/%d", i)
		keys[n+i] = fmt.Sprintf("mark/%d", i)
	}
	body := func(i int) sim.Body {
		return func(e sim.Ops) {
			r := e.Bind(keys)
			r.WriteInt(i, 1<<40+i) // typed, beyond the small-int range
			r.Write(n+i, mark{From: i, Big: 1<<45 + i})
			buf := make([]sim.Value, r.Len())
			for {
				vs := r.ReadMany(buf)
				sum, seen := 0, 0
				for j := 0; j < n; j++ {
					if x, ok := r.ReadInt(j); ok {
						sum += x - 1<<40
					}
					if m, ok := vs[n+j].(mark); ok && m.From == j {
						seen++
					}
				}
				if seen == n {
					e.Decide(sum)
					return
				}
			}
		}
	}
	run := func(backend string, decs vec.Vector, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s backend: %v", backend, err)
		}
		want := 0
		for i := 0; i < n; i++ {
			want += i
		}
		for i := 0; i < n; i++ {
			if decs[i] != want {
				t.Fatalf("%s backend: p%d decided %v, want %d", backend, i+1, decs[i], want)
			}
		}
	}
	inputs := vec.New(n)
	for i := range inputs {
		inputs[i] = i + 1
	}

	srt, err := sim.New(sim.Config{
		NC: n, Inputs: inputs.Clone(), CBody: body,
		Pattern: fdet.FailureFree(0), MaxSteps: 1_000_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	sres := srt.Run(&sim.StopWhenDecided{Inner: sim.NewRandom(7)})
	run("sim", sres.Outputs, sim.DecidedAll(sres))

	nrt, err := native.New(native.Config{
		NC: n, Inputs: inputs.Clone(), CBody: body,
		Pattern: fdet.FailureFree(0),
	})
	if err != nil {
		t.Fatal(err)
	}
	nres := nrt.Run(30 * time.Second)
	run("native", nres.Outputs, native.CheckDecided(nres))
}

// runSimBackend executes one seeded lockstep run under the uniform scheduler
// and returns the decisions after checking the scenario's verdict obligations.
func runSimBackend(s *core.Scenario, seed int64) (vec.Vector, error) {
	rt, err := sim.New(s.SimConfig(seed, 6_000_000))
	if err != nil {
		return nil, err
	}
	res := rt.Run(&sim.StopWhenDecided{Inner: sim.NewRandom(seed)})
	if err := sim.Check(s.Task, res); err != nil {
		return nil, err
	}
	return res.Outputs, nil
}

// runNativeBackend executes one seeded hardware-speed run and returns the
// decisions after the post-hoc checker.
func runNativeBackend(s *core.Scenario, seed int64) (vec.Vector, error) {
	rt, err := native.New(s.NativeConfig(seed, 20*time.Microsecond))
	if err != nil {
		return nil, err
	}
	res := rt.Run(30 * time.Second)
	if err := native.Check(s.Task, res); err != nil {
		return nil, err
	}
	return res.Outputs, nil
}
