package native_test

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wfadvice/internal/auto"
	"wfadvice/internal/core"
	"wfadvice/internal/fdet"
	"wfadvice/internal/native"
	"wfadvice/internal/sim"
	"wfadvice/internal/task"
	"wfadvice/internal/vec"
	"wfadvice/internal/wfree"
)

// tick is the test clock granularity; tests use small stabilize times so
// every run finishes in a few milliseconds.
const tick = 50 * time.Microsecond

func scenario(t *testing.T, p core.ScenarioParams) *core.Scenario {
	t.Helper()
	s, err := core.NewScenario(p)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func runNative(t *testing.T, s *core.Scenario, seed int64) *native.Result {
	t.Helper()
	rt, err := native.New(s.NativeConfig(seed, tick))
	if err != nil {
		t.Fatal(err)
	}
	return rt.Run(10 * time.Second)
}

// TestRegisters exercises the raw register table: concurrent writers on
// distinct keys, last-value visibility after the run, and nil for never
// written keys.
func TestRegisters(t *testing.T) {
	n := 4
	inputs := vec.New(n)
	for i := range inputs {
		inputs[i] = i
	}
	var mu sync.Mutex
	got := make(map[int]any)
	cfg := native.Config{
		NC: n, Inputs: inputs,
		CBody: func(i int) sim.Body {
			return func(e sim.Ops) {
				e.Write("slot", e.Input())
				if v := e.Read("never-written"); v != nil {
					t.Errorf("p%d read %v from a never-written register", i+1, v)
				}
				v := e.Read("slot")
				mu.Lock()
				got[i] = v
				mu.Unlock()
				e.Decide(e.Input())
			}
		},
		Pattern: fdet.FailureFree(0),
	}
	rt, err := native.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := rt.Run(5 * time.Second)
	if res.Reason != native.ReasonAllDecided {
		t.Fatalf("run ended %v, want all-decided", res.Reason)
	}
	for i := 0; i < n; i++ {
		// Each process read the register after its own write, so it must see
		// some process's input (atomicity: never a torn or nil value).
		v, ok := got[i].(int)
		if !ok || v < 0 || v >= n {
			t.Errorf("p%d read %v, want an input value", i+1, got[i])
		}
	}
	if res.Ops == 0 {
		t.Error("no operations counted")
	}
}

// TestConsensusNative runs the direct Ω solver end to end on goroutines and
// checks the post-hoc verdicts.
func TestConsensusNative(t *testing.T) {
	s := scenario(t, core.ScenarioParams{Task: "consensus", N: 4, Stabilize: 20})
	for seed := int64(1); seed <= 3; seed++ {
		res := runNative(t, s, seed)
		if err := native.Check(s.Task, res); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Reason != native.ReasonAllDecided {
			t.Fatalf("seed %d: run ended %v", seed, res.Reason)
		}
		for i := 0; i < 4; i++ {
			if res.Latency[i] <= 0 {
				t.Errorf("seed %d: p%d missing decision latency", seed, i+1)
			}
		}
	}
}

// TestKSetNative runs the direct vector-Ωk solver with k = 2.
func TestKSetNative(t *testing.T) {
	s := scenario(t, core.ScenarioParams{Task: "kset", N: 5, K: 2, Stabilize: 20})
	res := runNative(t, s, 7)
	if err := native.Check(s.Task, res); err != nil {
		t.Fatal(err)
	}
}

// TestMachineNative runs the Theorem 9 machine (Figure 4 renaming automata)
// on the native backend — the same automata and solver bodies as the sim
// experiments, zero changes.
func TestMachineNative(t *testing.T) {
	s := scenario(t, core.ScenarioParams{Task: "renaming", N: 4, J: 3, K: 2, Stabilize: 20})
	res := runNative(t, s, 11)
	if err := native.Check(s.Task, res); err != nil {
		t.Fatal(err)
	}
}

// TestProp1Native runs Proposition 1's sequential solver under real
// concurrency via the k=1 machine.
func TestProp1Native(t *testing.T) {
	s := scenario(t, core.ScenarioParams{Task: "prop1", N: 3, Stabilize: 20})
	res := runNative(t, s, 13)
	if err := native.Check(s.Task, res); err != nil {
		t.Fatal(err)
	}
}

// TestCrashInjection: every process the pattern makes faulty is killed at its
// first operation past its crash time, and no correct one is, under either
// wait. The system is built so that only crash injection can fail it: the
// S-processes keep taking operations for as long as they live, and the
// C-process cannot decide — which is what ends the run — before every faulty
// S-process has unwound, so a victim that is never killed exhausts the budget.
func TestCrashInjection(t *testing.T) {
	const crashAt = 20
	pat := fdet.NewPattern(4, map[int]fdet.Time{0: crashAt, 2: 2 * crashAt})
	for _, mode := range []native.AdviceMode{native.AdviceTick, native.AdviceEvent} {
		var unwound atomic.Int32
		rt, err := native.New(native.Config{
			NC: 1, NS: pat.N, Inputs: vec.Of(1), Pattern: pat, Tick: tick, Advice: mode,
			SBody: func(q int) sim.Body {
				return func(e sim.Ops) {
					if pat.Faulty(q) {
						defer unwound.Add(1)
					}
					r := e.Bind([]string{"x"})
					for {
						seen := e.Epoch()
						r.Read(0)
						e.AwaitEpoch(seen)
					}
				}
			},
			CBody: func(int) sim.Body {
				return func(e sim.Ops) {
					for int(unwound.Load()) < len(pat.FaultySet()) {
						e.AwaitEpoch(e.Epoch())
					}
					e.Decide(1)
				}
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		res := rt.Run(10 * time.Second)
		if res.Reason != native.ReasonAllDecided {
			t.Fatalf("%v wait: run ended %v after %d ticks with %v killed, want %v killed",
				mode, res.Reason, res.Ticks, res.Crashed, pat.FaultySet())
		}
		if !reflect.DeepEqual(res.Crashed, pat.FaultySet()) {
			t.Errorf("%v wait: killed %v, want exactly the faulty set %v", mode, res.Crashed, pat.FaultySet())
		}
	}
}

// TestRunOnEnvNative runs a bare collect automaton directly on the native
// backend through auto.RunOnEnv — the adapter is backend-independent. With a
// KSet automaton per process and unbounded concurrency the decisions may
// legitimately span up to n values; n-set agreement captures exactly that.
func TestRunOnEnvNative(t *testing.T) {
	n := 4
	inputs := vec.New(n)
	for i := range inputs {
		inputs[i] = 100 + i
	}
	cfg := native.Config{
		NC: n, Inputs: inputs,
		CBody: auto.Body("reg", n, func(i int, input sim.Value) auto.Automaton {
			return wfree.NewKSet(i, input)
		}),
		Pattern: fdet.FailureFree(0),
	}
	rt, err := native.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := rt.Run(5 * time.Second)
	if err := native.Check(task.NewSetAgreement(n, n), res); err != nil {
		t.Fatal(err)
	}
}

// TestCheckDecided verifies the wait-freedom obligation fires on a budget
// cutoff: a C-process that spins forever must be reported.
func TestCheckDecided(t *testing.T) {
	inputs := vec.Of(1, 2)
	cfg := native.Config{
		NC: 2, Inputs: inputs,
		CBody: func(i int) sim.Body {
			return func(e sim.Ops) {
				if i == 0 {
					e.Decide(e.Input())
					return
				}
				for { // never decides
					e.Read("x")
				}
			}
		},
		Pattern: fdet.FailureFree(0),
	}
	rt, err := native.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := rt.Run(30 * time.Millisecond)
	if res.Reason != native.ReasonBudget {
		t.Fatalf("run ended %v, want budget", res.Reason)
	}
	if err := native.CheckDecided(res); err == nil {
		t.Fatal("CheckDecided accepted an undecided participant")
	}
	if err := native.CheckDelta(task.NewSetAgreement(2, 2), res); err != nil {
		t.Fatalf("prefix output should satisfy ∆: %v", err)
	}
}

// TestReasonAllReturned: a C-body that returns without deciding must not be
// reported as an all-decided run.
func TestReasonAllReturned(t *testing.T) {
	cfg := native.Config{
		NC: 2, Inputs: vec.Of(1, 2),
		CBody: func(i int) sim.Body {
			return func(e sim.Ops) {
				if i == 0 {
					e.Decide(e.Input())
					return
				}
				// i == 1 participates (takes a step) then returns without
				// deciding — the wait-freedom violation shape.
				e.Read("x")
			}
		},
		Pattern: fdet.FailureFree(0),
	}
	rt, err := native.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := rt.Run(5 * time.Second)
	if res.Reason != native.ReasonAllReturned {
		t.Fatalf("run ended %v, want all-returned", res.Reason)
	}
	if err := native.CheckDecided(res); err == nil {
		t.Fatal("CheckDecided accepted the undecided returner")
	}
}

// TestFDService verifies the live service serves the stabilized advice: with
// Ω stabilized from tick 0, every query must return the pattern's leader.
func TestFDService(t *testing.T) {
	n := 3
	pat := fdet.NewPattern(n, map[int]fdet.Time{0: 0}) // q1 faulty from the start
	leader := pat.MinCorrect()
	var mu sync.Mutex
	seen := make(map[any]bool)
	cfg := native.Config{
		NS: n, Inputs: vec.New(0),
		SBody: func(q int) sim.Body {
			return func(e sim.Ops) {
				for i := 0; i < 50; i++ {
					v := e.QueryFD()
					mu.Lock()
					seen[v] = true
					mu.Unlock()
				}
			}
		},
		Pattern: pat,
		History: fdet.Omega{}.History(pat, 0, 1),
	}
	rt, err := native.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rt.Run(time.Second)
	mu.Lock()
	defer mu.Unlock()
	if len(seen) != 1 || !seen[leader] {
		t.Fatalf("advice values %v, want exactly the stable leader %d", seen, leader)
	}
}

// TestFDServiceFamilies verifies the live service serves every detector
// family — Ω, ¬Ωk, vector-Ωk, ◇P — with the family's stabilized output
// shape: the service is history-generic, so advice is whatever the fdet
// history prescribes at the published time.
func TestFDServiceFamilies(t *testing.T) {
	n, k := 4, 2
	pat := fdet.NewPattern(n, map[int]fdet.Time{n - 1: 0}) // q4 faulty from the start
	check := map[string]func(v any) error{
		"omega": func(v any) error {
			if l, ok := v.(int); !ok || pat.Faulty(l) {
				return fmt.Errorf("Ω output %v, want a correct leader index", v)
			}
			return nil
		},
		"anti-omega": func(v any) error {
			if set, ok := v.([]int); !ok || len(set) != n-k {
				return fmt.Errorf("¬Ω%d output %v, want a set of n-k=%d ids", k, v, n-k)
			}
			return nil
		},
		"vector-omega": func(v any) error {
			if vec, ok := v.([]int); !ok || len(vec) != k {
				return fmt.Errorf("vector-Ω%d output %v, want a %d-vector", k, v, k)
			}
			return nil
		},
		"eventually-perfect": func(v any) error {
			set, ok := v.([]int)
			if !ok {
				return fmt.Errorf("◇P output %v (%T), want []int", v, v)
			}
			for _, x := range set {
				if !pat.Faulty(x) {
					return fmt.Errorf("◇P suspects correct q%d after stabilization", x+1)
				}
			}
			return nil
		},
	}
	for name, validate := range check {
		det, err := fdet.ByName(name, k)
		if err != nil {
			t.Fatal(err)
		}
		var mu sync.Mutex
		var errs []error
		cfg := native.Config{
			NS: n, Inputs: vec.New(0),
			SBody: func(q int) sim.Body {
				if pat.Faulty(q) {
					return nil // spawn correct modules only
				}
				return func(e sim.Ops) {
					for i := 0; i < 20; i++ {
						if err := validate(e.QueryFD()); err != nil {
							mu.Lock()
							errs = append(errs, err)
							mu.Unlock()
							return
						}
					}
				}
			},
			Pattern: pat,
			History: det.History(pat, 0, 1), // stabilized from tick 0
		}
		rt, err := native.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rt.Run(5 * time.Second)
		mu.Lock()
		if len(errs) > 0 {
			t.Errorf("%s: %v", name, errs[0])
		}
		mu.Unlock()
	}
}

// TestStress exercises the harness on a short consensus burst and checks the
// report's internal consistency — and, the burst running under the default
// tick wait, that no process of it ever parked: waiting by yielding touches
// neither the notifier nor the heartbeat.
func TestStress(t *testing.T) {
	s := scenario(t, core.ScenarioParams{Task: "consensus", N: 4, Stabilize: 10})
	dur := 200 * time.Millisecond
	if testing.Short() {
		dur = 60 * time.Millisecond
	}
	rep, err := native.Stress(s.Name, s.Task, func(seed int64) (native.Config, error) {
		return s.NativeConfig(seed, tick), nil
	}, native.StressOptions{Duration: dur, RunBudget: 5 * time.Second, Workers: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed() {
		t.Fatalf("stress failed:\n%s", rep.Render())
	}
	if rep.Runs == 0 || rep.Ops == 0 || rep.Decisions == 0 {
		t.Fatalf("empty stress report:\n%s", rep.Render())
	}
	if rep.Latency.Samples == 0 || rep.Latency.P50 <= 0 || rep.Latency.Max < rep.Latency.P99 {
		t.Fatalf("implausible latency stats:\n%s", rep.Render())
	}
	if park, timeout := rep.Counters["notify_park"], rep.Counters["notify_timeout"]; park != 0 || timeout != 0 {
		t.Errorf("tick-wait burst entered the notifier: notify_park=%d notify_timeout=%d, want 0 and 0", park, timeout)
	}
}

// TestStressNoRunsFails: a run that checked no instance passes nothing. The
// report says so itself, and the harness refuses a budget that could not
// start one.
func TestStressNoRunsFails(t *testing.T) {
	rep := &native.StressReport{Scenario: "consensus/n=4/omega"}
	if !rep.Failed() {
		t.Error("a zero-run report is not Failed")
	}
	if out := rep.Render(); !strings.Contains(out, "checker:    FAIL (no instance ran)") {
		t.Errorf("a zero-run report renders without saying why it failed:\n%s", out)
	}
	s := scenario(t, core.ScenarioParams{Task: "consensus", N: 4, Stabilize: 10})
	for _, d := range []time.Duration{0, -time.Second} {
		calls := 0
		rep, err := native.Stress(s.Name, s.Task, func(seed int64) (native.Config, error) {
			calls++
			return s.NativeConfig(seed, tick), nil
		}, native.StressOptions{Duration: d, Seed: 1})
		if err == nil || rep != nil || calls != 0 {
			t.Errorf("Duration %v: report %v, error %v, %d configs built; want an error and nothing built", d, rep, err, calls)
		}
	}
}

// TestStressBuildsEachInstanceOnce: the default pool is sized off instance
// 0's config, which its worker then runs rather than building again, and an
// explicit pool never builds one early — every instance that ran was built
// exactly once, whichever way the pool was sized.
func TestStressBuildsEachInstanceOnce(t *testing.T) {
	s := scenario(t, core.ScenarioParams{Task: "consensus", N: 4, Stabilize: 10})
	for _, workers := range []int{0, 1} {
		var mu sync.Mutex
		built := map[int64]int{}
		rep, err := native.Stress(s.Name, s.Task, func(seed int64) (native.Config, error) {
			mu.Lock()
			built[seed]++
			mu.Unlock()
			return s.NativeConfig(seed, tick), nil
		}, native.StressOptions{Duration: 30 * time.Millisecond, Workers: workers, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Failed() || len(built) != rep.Runs {
			t.Fatalf("Workers %d: %d configs built for %d runs\n%s", workers, len(built), rep.Runs, rep.Render())
		}
		for seed, n := range built {
			if n != 1 {
				t.Errorf("Workers %d: instance seed %d built %d times", workers, seed, n)
			}
		}
	}
}

// TestSoakSmoke is the short-duration leak check behind the ROADMAP's soak
// profile: after back-to-back stress instances — each spawning 2n process
// goroutines, an advice service and a register table — the goroutine count
// and the live heap must return to baseline. A leaked S-process goroutine
// or advice service would accumulate across the bursts and show up here
// long before a 10-minute soak could.
func TestSoakSmoke(t *testing.T) {
	s := scenario(t, core.ScenarioParams{Task: "consensus", N: 4, Stabilize: 10})
	burst := func(d time.Duration) {
		// Snapshot sixteen times a burst so every burst exercises the soak
		// profile: the monitor goroutine, the snapshot series and the
		// post-hoc leak audit — the same machinery `efd-stress -duration
		// 10m -snapshot 30s` runs for real soaks. The audit compares the
		// floors of the two halves of the series, and a floor read off two
		// snapshots is no floor: a snapshot finds both workers mid-instance
		// about one time in four and both idle one time in thirty.
		rep, err := native.Stress(s.Name, s.Task, func(seed int64) (native.Config, error) {
			return s.NativeConfig(seed, tick), nil
		}, native.StressOptions{Duration: d, RunBudget: 5 * time.Second, Workers: 2, Seed: 1,
			SnapshotEvery: d / 16})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Failed() {
			t.Fatalf("soak burst failed:\n%s", rep.Render())
		}
		if len(rep.Snapshots) == 0 {
			t.Fatal("soak burst collected no snapshots")
		}
		for _, snap := range rep.Snapshots {
			if snap.Goroutines <= 0 || snap.HeapAlloc == 0 {
				t.Fatalf("implausible soak snapshot: %+v", snap)
			}
		}
		if err := rep.LeakCheck(); err != nil {
			t.Fatalf("leak audit over %d snapshots: %v", len(rep.Snapshots), err)
		}
	}
	bursts, dur := 3, 150*time.Millisecond
	if testing.Short() {
		bursts, dur = 2, 50*time.Millisecond
	}
	// Warm up once so lazily-started runtime machinery (GC workers, timer
	// threads) is part of the baseline, then measure.
	burst(dur)
	runtime.GC()
	baseGoroutines := runtime.NumGoroutine()
	var base runtime.MemStats
	runtime.ReadMemStats(&base)

	for i := 0; i < bursts; i++ {
		burst(dur)
	}

	// Goroutines: every instance goroutine and advice service must be gone.
	// Retry briefly — exiting goroutines may still be winding down.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= baseGoroutines+2 {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d after soak, baseline %d", n, baseGoroutines)
		}
		time.Sleep(10 * time.Millisecond)
	}
	// Heap: the retained live set must return to the baseline ballpark; a
	// leaked register table per instance would add MBs per burst. The slack
	// is deliberately generous — this is a leak detector, not a memory
	// benchmark.
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	const slack = 16 << 20
	if after.HeapAlloc > base.HeapAlloc+slack {
		t.Fatalf("heap grew from %d to %d bytes after soak (> %d slack): retained garbage",
			base.HeapAlloc, after.HeapAlloc, slack)
	}
}

// TestLeakCheckComparesFloors: a soak snapshot lands anywhere between every
// worker idling between two instances and every worker mid-instance, so the
// audit compares the low-water marks of the two halves of the series, not
// two snapshots. A series whose first snapshot caught the pool empty and
// whose last caught it full is clean (first against last, it read as 17
// leaked goroutines); a floor that rises is a leak, in goroutines or heap.
func TestLeakCheckComparesFloors(t *testing.T) {
	series := func(heapStep uint64, goroutines ...int) *native.StressReport {
		rep := &native.StressReport{}
		for i, g := range goroutines {
			rep.Snapshots = append(rep.Snapshots, native.SoakSnapshot{Goroutines: g, HeapAlloc: 8<<20 + uint64(i)*heapStep})
		}
		return rep
	}
	for _, clean := range [][]int{
		{6, 23, 14, 23},                 // empty pool first, full pool last
		{6, 23, 23, 14, 23, 13, 23, 23}, // the same shape, longer
		{23, 23, 6, 6},                  // shrinking
		{23},                            // no series to speak of
	} {
		if err := series(1<<20, clean...).LeakCheck(); err != nil {
			t.Errorf("series %v: %v, want clean", clean, err)
		}
	}
	// The floor rising by some eight goroutines a snapshot under the same noise.
	if err := series(0, 6, 23, 31, 30, 38, 55, 63, 62).LeakCheck(); err == nil || !strings.Contains(err.Error(), "goroutine") {
		t.Errorf("rising goroutine floor: LeakCheck = %v, want a goroutine leak", err)
	}
	if err := series(32<<20, 6, 23, 14, 23, 6, 23).LeakCheck(); err == nil || !strings.Contains(err.Error(), "heap") {
		t.Errorf("heap growing 32 MB a snapshot: LeakCheck = %v, want a heap leak", err)
	}
}

// TestStressPinned runs a short burst with OS-thread pinning: every
// instance goroutine is kernel-scheduled on its own thread, and the checker
// verdicts must be exactly as clean as unpinned (pinning is a scheduling
// knob, never a semantics change). The run also covers thread handback —
// back-to-back pinned instances must not accumulate OS threads.
func TestStressPinned(t *testing.T) {
	s := scenario(t, core.ScenarioParams{Task: "consensus", N: 4, Stabilize: 10})
	dur := 150 * time.Millisecond
	if testing.Short() {
		dur = 50 * time.Millisecond
	}
	rep, err := native.Stress(s.Name, s.Task, func(seed int64) (native.Config, error) {
		return s.NativeConfig(seed, tick), nil
	}, native.StressOptions{Duration: dur, RunBudget: 5 * time.Second, Workers: 2, Seed: 1, Pin: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed() {
		t.Fatalf("pinned stress failed:\n%s", rep.Render())
	}
	if rep.Runs == 0 || rep.Decisions == 0 {
		t.Fatalf("empty pinned stress report:\n%s", rep.Render())
	}
}

// TestStressRate verifies the -rate throttle paces instance starts.
func TestStressRate(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive")
	}
	s := scenario(t, core.ScenarioParams{Task: "nset", N: 3, Stabilize: 1})
	rep, err := native.Stress(s.Name, s.Task, func(seed int64) (native.Config, error) {
		return s.NativeConfig(seed, tick), nil
	}, native.StressOptions{Duration: 300 * time.Millisecond, Workers: 2, Rate: 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// 20 starts/sec over 300ms is ~6 instances; allow generous slack but
	// catch an unthrottled loop (hundreds of runs).
	if rep.Runs > 20 {
		t.Fatalf("rate limiter ineffective: %d runs in %v", rep.Runs, rep.Elapsed)
	}
	if rep.Failed() {
		t.Fatalf("stress failed:\n%s", rep.Render())
	}
}
