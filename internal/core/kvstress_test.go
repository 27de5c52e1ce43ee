package core

import (
	"math"
	"reflect"
	"testing"
	"time"

	"wfadvice/internal/fdet"
	"wfadvice/internal/kv"
	"wfadvice/internal/native"
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

// TestKVStressHoldsAFewWindowsOfRegisters: a fault-free closed-loop second of
// the benchmark's kv-put shape decides tens of thousands of log slots (a few
// thousand under the race detector) of four registers each, and ends with a
// few windows' worth in the table — 300 to 500 on an idle box: the replicas
// released the rest as their frontiers passed, and the binds that followed
// minted from the arrays that came back. The count is taken the moment the
// clerks finish, so a follower the scheduler held back just then still holds
// the windows it has to catch up through (256 registers each); that is lag,
// not growth, and a second run does not repeat it — the bound is on the best
// of three, where a table that is not reclaimed holds a quarter of a million
// every time.
func TestKVStressHoldsAFewWindowsOfRegisters(t *testing.T) {
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
}

// TestKVStressCrashedReplicaPinsTheLog is the same second with the leader
// crashed half way. The run must pass its checker like any other. What it
// does not do is stay small: a crashed replica's frontier register keeps the
// value it last published, the minimum over the frontiers stops there, and
// every window from that one on stays in the table — the log after the crash
// is held exactly as the whole log was before replicas released anything.
// That is the known limit of reclamation by frontier alone (a survivor cannot
// tell a crashed replica from a slow one); it goes when a lagging replica can
// install a snapshot instead of sweeping. Until then this test documents the
// pin: the registers held are the survivors' slots since the crash, not a few
// windows.
func TestKVStressCrashedReplicaPinsTheLog(t *testing.T) {
	rep := runKVStress(t, KVStressOptions{
		N: 3, Clients: 4, PutFrac: 1, Duration: time.Second, Seed: 1,
		CrashLeader: 1, CrashAt: 5000, // tick 100 µs: half a second in
	})
	if rep.Crashes != 1 {
		t.Fatalf("injected crashes = %d, want 1", rep.Crashes)
	}
	slots := rep.Counters["kv_batch_commit"] + rep.Counters["kv_batch_preempt"]
	t.Logf("%d ops in %d slots: %d registers held, %d released", rep.Ops, slots, rep.Registers, rep.Counters["reg_released"])
	if rep.Counters["reg_released"] == 0 {
		t.Error("nothing was released in the half second before the crash")
	}
	if rep.Registers <= 2048 && slots > 4096 {
		t.Logf("the table is small after a crash: has snapshot install landed? Then fold this test into the fault-free one")
	}
}

// TestKVStressSharesScenarioAssembly is the drift guard: the system KVStress
// runs and the conformance grid's NewScenario kv row come out of the same
// constructor, so for equal (nc, ns) they agree on task, inputs, detector and
// the register-estimate formula, and differ only in what each caller owns.
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
	// Same formula, each caller's own slot count: the live windows of a
	// reclaiming log for the harness, n·kvScriptOps — the grid's script
	// length — for the grid.
	if got, want := stress.Registers, kv.Registers(n, n, kvLiveSlots); got != want {
		t.Errorf("stress registers = %d, want kv.Registers(%d, %d, %d) = %d", got, n, n, kvLiveSlots, want)
	}
	if got, want := grid.Registers, kv.Registers(n, n, n*kvScriptOps); got != want {
		t.Errorf("grid registers = %d, want kv.Registers(%d, %d, %d) = %d", got, n, n, n*kvScriptOps, want)
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

// TestKVPutAllocBudget holds a replicated put to what its protocol allocates:
// closed-loop runs of the benchmark's kv-put shape (3 replicas, 4 clerks, all
// puts) average at most 0.5 heap objects per completed operation, set-up,
// drain and post-hoc check included. About 0.19 is what is left once a
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
// cannot honour is an error, not a closed loop or a Get-only run.
func TestKVStressRefusesUnusableSettings(t *testing.T) {
	for _, o := range []KVStressOptions{
		{Rate: math.NaN()}, {Rate: math.Inf(1)}, {Rate: -1},
		{PutFrac: math.NaN()}, {PutFrac: -0.1}, {PutFrac: 1.5},
	} {
		o.N, o.Duration = 3, 10*time.Millisecond
		if _, err := KVStress(o); err == nil {
			t.Errorf("KVStress(rate %v, put-frac %v): no error", o.Rate, o.PutFrac)
		}
	}
}
