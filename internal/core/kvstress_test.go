package core

import (
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"wfadvice/internal/fdet"
	"wfadvice/internal/kv"
	"wfadvice/internal/native"
	"wfadvice/internal/sim"
)

func runKVStress(t *testing.T, opt KVStressOptions) *native.StressReport {
	t.Helper()
	rep, err := KVStress(opt)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed() {
		t.Fatalf("kv stress failed: %+v errors=%v", rep.Latency, rep.Errors)
	}
	if rep.Ops == 0 {
		t.Fatal("kv stress completed zero client ops")
	}
	if rep.Decisions != opt.clients() {
		t.Fatalf("decided %d sessions, want %d", rep.Decisions, opt.clients())
	}
	return rep
}

func TestKVStressOpenLoop(t *testing.T) {
	rep := runKVStress(t, KVStressOptions{
		N: 3, Rate: 2000, Duration: 300 * time.Millisecond, PutFrac: 0.5, Seed: 1,
	})
	if rep.Latency.Samples == 0 || rep.Latency.P50 <= 0 {
		t.Fatalf("no open-loop latencies recorded: %+v", rep.Latency)
	}
	if rep.Counters["kv_batch_commit"] == 0 {
		t.Fatalf("no batches committed: counters=%v", rep.Counters)
	}
}

// TestKVStressGetOnly: a put fraction of 0 issues no put at all, and a
// history of reads alone passes the checker like any other.
func TestKVStressGetOnly(t *testing.T) {
	rep := runKVStress(t, KVStressOptions{
		N: 3, Rate: 2000, Duration: 300 * time.Millisecond, PutFrac: 0, Seed: 1,
	})
	if put, get := rep.Counters["kv_op_put"], rep.Counters["kv_op_get"]; put != 0 || get == 0 {
		t.Fatalf("kv_op_put = %d, kv_op_get = %d; want no put and some gets", put, get)
	}
}

func TestKVStressLeaderCrash(t *testing.T) {
	// Short ticks put the crash (stabilize+100 ticks) well inside the issue
	// window, so the run must survive a mid-workload leader failover.
	rep := runKVStress(t, KVStressOptions{
		N: 3, Rate: 1000, Duration: 400 * time.Millisecond, PutFrac: 0.5, Seed: 2,
		CrashLeader: 1, Tick: 20 * time.Microsecond,
	})
	if rep.Crashes != 1 {
		t.Fatalf("injected crashes = %d, want 1", rep.Crashes)
	}
	if rep.Scenario != "kv/n=3/clients=3/crash-leader=1" {
		t.Fatalf("scenario key = %q", rep.Scenario)
	}
}

func TestKVStressChaosStorm(t *testing.T) {
	// The adversarial acceptance case at test scale: flapping advice, a
	// back-to-back crash storm chasing whoever is advised, and a clerk
	// deadline so a starved op surfaces as a timeout instead of a hang. The
	// run must pass the checker whether or not any op actually timed out.
	rep := runKVStress(t, KVStressOptions{
		N: 4, Rate: 2000, Duration: 400 * time.Millisecond, PutFrac: 0.5, Seed: 4,
		Chaos:       fdet.AdviceChaos{Mode: fdet.ChaosFlap, Window: 8},
		CrashLeader: 2, CrashStorm: true, Tick: 20 * time.Microsecond,
		ClerkTimeout: 50 * time.Millisecond,
	})
	if rep.Scenario != "kv/n=4/clients=4/crash-leader=2/storm/chaos=flap:8" {
		t.Fatalf("scenario key = %q", rep.Scenario)
	}
	if rep.Crashes != 2 {
		t.Fatalf("injected crashes = %d, want 2", rep.Crashes)
	}
	if rep.Timeouts != rep.Counters["kv_deadline_expired"] {
		t.Fatalf("report timeouts %d != counter %d", rep.Timeouts, rep.Counters["kv_deadline_expired"])
	}
}

func TestKVCrashScheduleChasesAdvice(t *testing.T) {
	// Victims are whoever the advice names at each crash time; with plain
	// LiveOmega that is the lowest live replica, so the storm kills 0 then
	// 1 at consecutive ticks, and the schedule never kills everyone.
	sched := kvCrashSchedule(fdet.LiveOmega{}, 3, 5, 200, true, 100, 1)
	if len(sched) != 2 {
		t.Fatalf("schedule has %d victims, want 2 (one replica must survive): %v", len(sched), sched)
	}
	if sched[0] != 200 || sched[1] != 201 {
		t.Fatalf("storm schedule = %v, want {0:200 1:201}", sched)
	}
	// Spaced (non-storm) kills: same victims, CrashAt-multiples apart.
	spaced := kvCrashSchedule(fdet.LiveOmega{}, 3, 2, 200, false, 100, 1)
	if spaced[0] != 200 || spaced[1] != 400 {
		t.Fatalf("spaced schedule = %v, want {0:200 1:400}", spaced)
	}
}

func TestKVStressClosedLoopEventAdvice(t *testing.T) {
	rep := runKVStress(t, KVStressOptions{
		N: 3, Clients: 2, Duration: 200 * time.Millisecond, PutFrac: 0.5, Seed: 3,
		Advice: native.AdviceEvent,
	})
	if rep.Scenario != "kv/n=3/clients=2/advice=event/closed-loop" {
		t.Fatalf("scenario key = %q", rep.Scenario)
	}
}

// TestKVStressHoldsAFewWindowsOfRegisters: a closed-loop second of the
// benchmark's kv-put shape decides tens of thousands of log slots (a few
// thousand under the race detector) of four registers each, and ends with a
// few windows' worth in the table.
//
// Fault-free, that is 300 to 500 on an idle box: the replicas released the
// rest as their frontiers passed, and the binds that followed minted from the
// arrays that came back. The count is taken the moment the clerks finish, so
// a follower the scheduler held back just then still holds the windows it has
// to catch up through (256 registers each); that is lag, not growth, and a
// second run does not repeat it — the bound is on the best of three, where a
// table that is not reclaimed holds a quarter of a million every time.
//
// With the leader crashed half way, the run must pass its checker like any
// other, and the crashed replica's frontier register keeps the value it last
// published. The survivors give back every window more than kv.LagWindows
// below their own but that one, writing a snapshot first, so the table holds
// LagWindows windows and a few: the pinned one, the current one, and block
// registers only the crashed leader had bound. Before snapshots, every window
// from the pinned one on stayed, some 300 000 registers a second.
func TestKVStressHoldsAFewWindowsOfRegisters(t *testing.T) {
	const perWindow = 64 * (1 + 3) // a window's decisions, and its blocks for three proposers
	t.Run("fault-free", func(t *testing.T) {
		const tries = 3
		for try := 1; ; try++ {
			rep := runKVStress(t, KVStressOptions{N: 3, Clients: 4, PutFrac: 1, Duration: time.Second, Seed: int64(try)})
			slots := rep.Counters["kv_batch_commit"] + rep.Counters["kv_batch_preempt"]
			t.Logf("%d ops in %d slots: %d registers held, %d released, %d binds on a recycled array",
				rep.Ops, slots, rep.Registers, rep.Counters["reg_released"], rep.Counters["cell_array_reused"])
			if slots < 1024 {
				t.Fatalf("the run decided %d slots, too few to tell a bounded table from an unbounded one", slots)
			}
			if rep.Counters["reg_released"] < 2*slots || rep.Counters["cell_array_reused"] == 0 {
				t.Fatalf("%d registers released and %d binds on a recycled array over %d slots: the log is not being reclaimed",
					rep.Counters["reg_released"], rep.Counters["cell_array_reused"], slots)
			}
			if rep.Registers <= 2048 {
				return
			}
			if try == tries {
				t.Fatalf("the table holds %d registers after %d slots, want ≤ 2048 in one run of %d", rep.Registers, slots, tries)
			}
		}
	})
	t.Run("crashed-leader", func(t *testing.T) {
		rep := runKVStress(t, KVStressOptions{
			N: 3, Clients: 4, PutFrac: 1, Duration: time.Second, Seed: 1,
			CrashLeader: 1, CrashAt: 5000, // tick 100 µs: half a second in
		})
		if rep.Crashes != 1 {
			t.Fatalf("injected crashes = %d, want 1", rep.Crashes)
		}
		slots := rep.Counters["kv_batch_commit"] + rep.Counters["kv_batch_preempt"]
		t.Logf("%d ops in %d slots: %d registers held, %d released, %d snapshots written",
			rep.Ops, slots, rep.Registers, rep.Counters["reg_released"], rep.Counters["kv_snapshot_write"])
		if rep.Counters["reg_released"] == 0 {
			t.Error("nothing was released in the half second before the crash")
		}
		if want := (kv.LagWindows + 4) * perWindow; rep.Registers > want {
			t.Errorf("the table holds %d registers after %d slots, want ≤ %d (%d windows)", rep.Registers, slots, want, kv.LagWindows+4)
		}
	})
}

// TestKVStressHoldsAFewChunksOfHistory: the session check streams, so a
// closed-loop run holds a few chunks of history a clerk however long it
// runs. The live heap after a collection, read half a second in and again
// more than a second later, grows by less than 8 MB. With the whole history
// kept until the run ends, as when the clerks get no checker, a record
// costs 64 B and an op of the check's order 8 more, and the second reading
// is 30 to 50 MB higher (a tenth of that under the race detector, where the
// run does a tenth of the ops).
func TestKVStressHoldsAFewChunksOfHistory(t *testing.T) {
	heaps := make(chan uint64, 2)
	go func() {
		start := time.Now()
		for _, at := range []time.Duration{500 * time.Millisecond, 1700 * time.Millisecond} {
			time.Sleep(time.Until(start.Add(at)))
			runtime.GC()
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			heaps <- ms.HeapAlloc
		}
	}()
	rep := runKVStress(t, KVStressOptions{N: 3, Clients: 4, PutFrac: 1, Duration: 2 * time.Second, Seed: 1})
	first, second := <-heaps, <-heaps
	t.Logf("%d ops; live heap %.1f MB at 0.5 s, %.1f MB at 1.7 s", rep.Ops, float64(first)/(1<<20), float64(second)/(1<<20))
	if second > first+8<<20 {
		t.Errorf("the live heap grew from %d to %d bytes in 1.2 s: the run keeps its history", first, second)
	}
}

// TestKVStressSharesScenarioAssembly is the drift guard: the system KVStress
// runs and the conformance grid's NewScenario kv row come out of the same
// constructor, so for equal (nc, ns) they agree on task, inputs and
// detector, and differ only in what each caller owns.
func TestKVStressSharesScenarioAssembly(t *testing.T) {
	const n = 3
	grid, err := NewScenario(ScenarioParams{Task: "kv", N: n})
	if err != nil {
		t.Fatal(err)
	}
	opt := KVStressOptions{N: n, Rate: 100, Duration: time.Second}
	stress := opt.scenario(kv.ClerkConfig{})
	if got, want := stress.Task.Name(), grid.Task.Name(); got != want {
		t.Errorf("task: stress %q, grid %q", got, want)
	}
	if !reflect.DeepEqual(stress.Inputs, grid.Inputs) {
		t.Errorf("inputs: stress %v, grid %v", stress.Inputs, grid.Inputs)
	}
	if stress.Detector != grid.Detector {
		t.Errorf("detector: stress %#v, grid %#v", stress.Detector, grid.Detector)
	}
	if stress.NC != grid.NC || stress.NS != grid.NS {
		t.Errorf("dimensions: stress %d×%d, grid %d×%d", stress.NC, stress.NS, grid.NC, grid.NS)
	}
	// Chaos composes over the shared detector the same way on both paths.
	chaos := fdet.AdviceChaos{Mode: fdet.ChaosFlap, Window: 4}
	grid, err = NewScenario(ScenarioParams{Task: "kv", N: n, Chaos: "flap:4"})
	if err != nil {
		t.Fatal(err)
	}
	opt.Chaos = chaos
	if got, want := opt.scenario(kv.ClerkConfig{}).Detector.Name(), grid.Detector.Name(); got != want {
		t.Errorf("chaos detector: stress %q, grid %q", got, want)
	}
}

// TestKVVerdictWithNoClerkDecided: a clerk whose replica answers every op
// with no version fails the run's streaming check at its first sealed chunk,
// and the run is cut off before the clerk decides. The verdict is that
// violation: ∆ over no decided session passes vacuously, and the checker
// holds what it found.
func TestKVVerdictWithNoClerkDecided(t *testing.T) {
	ck := kv.NewChecker(1)
	s := kvScenario(1, 1, kv.ClerkConfig{Ops: 1 << 20, PutFrac: 0.5, Checker: ck})
	s.Pattern = fdet.FailureFree(1)
	s.SBody = func(int) sim.Body {
		return func(e sim.Ops) {
			for answered := 0; ; {
				if req, ok := e.Read(kv.ReqKey(0)).(*kv.Request); ok && req.Seq > answered {
					answered = req.Seq
					e.Write(kv.RepKey(0), &kv.Reply{Seq: req.Seq})
				}
			}
		}
	}
	rt, err := sim.New(s.SimConfig(1, 20_000))
	if err != nil {
		t.Fatal(err)
	}
	res := rt.Run(&sim.RoundRobin{})
	if n := res.Outputs.Count(); n != 0 {
		t.Fatalf("%d clerks decided, want the run cut off first", n)
	}
	err = kvVerdict(s.Task, res.Inputs, res.Outputs, ck)
	if err == nil || !strings.Contains(err.Error(), "without a version") {
		t.Errorf("verdict %v, want the checker's violation: an applied op without a version", err)
	}
}

// TestKVPutAllocBudget holds a replicated put to what its protocol allocates:
// closed-loop runs of the benchmark's kv-put shape (3 replicas, 4 clerks, all
// puts) average at most 0.5 heap objects per completed operation, set-up,
// drain and the session check, which runs while the clerks record, included. About 0.19 is what is left once a
// register write costs no object of the cell's own and every register holds
// a pointer into its writer's slab — a request, a reply, a decided `Batch`
// and a paxos block alike — so that a committed log slot allocates nothing:
// the window tables, the slabs' chunks and the runs' set-up. Boxing the
// `Batch` and the phase-2 block again adds about 1.0, the request and the
// reply 2.0. Under the race detector a run completes a tenth of the
// operations, so the fixed costs weigh more (it reads about 0.33): the
// budget there is 0.75.
func TestKVPutAllocBudget(t *testing.T) {
	kvAllocBudget(t, 1, 0.5, 0.75)
}

// TestKVLeaseReadAllocBudget holds a lease read to what its protocol
// allocates, which is next to nothing: closed-loop runs of the benchmark's
// kv-get shape (3 replicas, 4 clerks, 5 % puts) average at most 0.1 heap
// objects per completed operation. It reads about 0.03 — the window tables
// of its puts' log slots and the slabs' chunks — and 0.10 under the race
// detector, where the budget is 0.25. Boxing the request and the reply adds
// 2.0.
func TestKVLeaseReadAllocBudget(t *testing.T) {
	kvAllocBudget(t, 0.05, 0.1, 0.25)
}

// kvAllocBudget runs closed-loop KVStress segments of 3 replicas and 4 clerks
// issuing putFrac puts until 20 000 ops have completed, and fails t if they
// allocated more than budget heap objects per op (raceBudget under the race
// detector).
func kvAllocBudget(t *testing.T, putFrac, budget, raceBudget float64) {
	var mallocs uint64
	var ops int64
	for seed := int64(1); ops < 20_000; seed++ {
		mallocs += mallocsDuring(func() {
			ops += runKVStress(t, KVStressOptions{
				N: 3, Clients: 4, PutFrac: putFrac, Duration: 250 * time.Millisecond, Seed: seed,
			}).Ops
		})
	}
	if raceDetector {
		budget = raceBudget
	}
	per := float64(mallocs) / float64(ops)
	t.Logf("%.2f mallocs per op over %d ops", per, ops)
	if per > budget {
		t.Errorf("%.2f mallocs per op, want ≤ %v", per, budget)
	}
}

// TestKVScenarioNameFollowsTheInterval: a rate so high that the open-loop
// interval rounds to zero runs closed loop, and its key says so.
func TestKVScenarioNameFollowsTheInterval(t *testing.T) {
	for _, c := range []struct {
		rate float64
		want string
	}{
		{0, "kv/n=3/clients=3/closed-loop"},
		{1e20, "kv/n=3/clients=3/closed-loop"},
		{10000, "kv/n=3/clients=3"},
	} {
		if got := (KVStressOptions{N: 3, Rate: c.rate}).KVScenarioName(); got != c.want {
			t.Errorf("rate %v: scenario key %q, want %q", c.rate, got, c.want)
		}
	}
}

// TestKVStressRefusesUnusableSettings: a rate or put fraction the clerks
// cannot honour is an error, not a closed loop or a Get-only run; a
// negative setting is an error, not its default; and a crash count that
// would leave no replica is an error, not fewer crashes than it reports.
func TestKVStressRefusesUnusableSettings(t *testing.T) {
	for _, o := range []KVStressOptions{
		{Rate: math.NaN()}, {Rate: math.Inf(1)}, {Rate: -1},
		{PutFrac: math.NaN()}, {PutFrac: -0.1}, {PutFrac: 1.5},
		{Clients: -1}, {CrashLeader: -1}, {CrashLeader: 3}, {CrashLeader: 5},
		{CrashLeader: 1, CrashAt: -1}, {Stabilize: -1}, {Tick: -time.Millisecond},
		{ClerkTimeout: -time.Second}, {RunBudget: -time.Second},
	} {
		o.N, o.Duration = 3, 10*time.Millisecond
		if _, err := KVStress(o); err == nil {
			t.Errorf("KVStress(%+v): no error", o)
		}
	}
}
