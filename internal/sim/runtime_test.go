package sim

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"wfadvice/internal/fdet"
	"wfadvice/internal/ids"
	"wfadvice/internal/vec"
)

// echoConfig builds a tiny system: each C-process writes its input and reads
// it back, then decides it.
func echoConfig(nc int, maxSteps int) Config {
	inputs := vec.New(nc)
	for i := range inputs {
		inputs[i] = i * 10
	}
	return Config{
		NC:     nc,
		NS:     0,
		Inputs: inputs,
		CBody: func(i int) Body {
			return func(e Ops) {
				key := fmt.Sprintf("r/%d", i)
				e.Write(key, e.Input())
				v := e.Read(key)
				e.Decide(v)
			}
		},
		Pattern:  fdet.FailureFree(0),
		MaxSteps: maxSteps,
	}
}

func TestRuntimeEchoAllDecide(t *testing.T) {
	rt, err := New(echoConfig(4, 1000))
	if err != nil {
		t.Fatal(err)
	}
	res := rt.Run(&RoundRobin{})
	if res.Reason != ReasonAllDone {
		t.Fatalf("reason = %v, want all-done", res.Reason)
	}
	for i := 0; i < 4; i++ {
		if res.Outputs[i] != i*10 {
			t.Errorf("p%d decided %v, want %d", i+1, res.Outputs[i], i*10)
		}
	}
	if err := DecidedAll(res); err != nil {
		t.Error(err)
	}
}

func TestRuntimeDeterministic(t *testing.T) {
	run := func(seed int64) []Event {
		rt, err := New(echoConfig(5, 200))
		if err != nil {
			t.Fatal(err)
		}
		return rt.Run(NewRandom(seed)).Trace
	}
	a, b := run(42), run(42)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed produced different traces:\n%v\n%v", a, b)
	}
	c := run(43)
	if reflect.DeepEqual(a, c) {
		t.Log("different seeds produced identical traces (possible but unlikely)")
	}
}

func TestRuntimeMaxStepsStopsLoopers(t *testing.T) {
	cfg := Config{
		NC:     1,
		NS:     1,
		Inputs: vec.Of(7),
		CBody: func(i int) Body {
			return func(e Ops) {
				for {
					e.Read("nothing")
				}
			}
		},
		SBody: func(i int) Body {
			return func(e Ops) {
				for {
					e.Write("beat", e.QueryFD())
				}
			}
		},
		Pattern:  fdet.FailureFree(1),
		History:  fdet.Omega{}.History(fdet.FailureFree(1), 0, 1),
		MaxSteps: 100,
	}
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := rt.Run(&RoundRobin{})
	if res.Reason != ReasonMaxSteps {
		t.Fatalf("reason = %v, want max-steps", res.Reason)
	}
	if res.Steps != 100 {
		t.Fatalf("steps = %d, want 100", res.Steps)
	}
}

func TestRuntimeCrashStopsSProcess(t *testing.T) {
	pat := fdet.NewPattern(2, map[int]int{0: 10})
	cfg := Config{
		NC:     1,
		NS:     2,
		Inputs: vec.Of(1),
		CBody: func(i int) Body {
			return func(e Ops) {
				for {
					e.Read("x")
				}
			}
		},
		SBody: func(i int) Body {
			return func(e Ops) {
				for {
					e.Write(fmt.Sprintf("s/%d", i), e.QueryFD())
				}
			}
		},
		Pattern:  pat,
		History:  fdet.Trivial{}.History(pat, 0, 1),
		MaxSteps: 300,
	}
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := rt.Run(&RoundRobin{})
	for _, e := range res.Trace {
		if e.Proc == ids.S(0) && e.Step >= 10 {
			t.Fatalf("crashed q1 took a step at %d", e.Step)
		}
	}
	// The correct S-process must keep going (fairness under round-robin).
	if err := CheckFair(res, pat, 10); err != nil {
		t.Fatal(err)
	}
}

func TestKGateEnforcesConcurrency(t *testing.T) {
	const nc, k = 6, 2
	inputs := vec.New(nc)
	for i := range inputs {
		inputs[i] = i
	}
	cfg := Config{
		NC:     nc,
		Inputs: inputs,
		CBody: func(i int) Body {
			return func(e Ops) {
				for j := 0; j < 5; j++ { // a few steps before deciding
					e.Write(fmt.Sprintf("w/%d", i), j)
				}
				e.Decide(i)
			}
		},
		Pattern:  fdet.FailureFree(0),
		MaxSteps: 10_000,
	}
	for seed := int64(0); seed < 10; seed++ {
		rt, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res := rt.Run(&KGate{K: k, Inner: NewRandom(seed)})
		if err := DecidedAll(res); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if got := MaxConcurrency(res); got > k {
			t.Fatalf("seed %d: concurrency %d > %d", seed, got, k)
		}
	}
}

func TestPauseWindowAndExclude(t *testing.T) {
	cfg := echoConfig(3, 2000)
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := rt.Run(&PauseWindow{Proc: ids.C(0), From: 0, To: 50, Inner: &RoundRobin{}})
	if err := DecidedAll(res); err != nil {
		t.Fatal(err)
	}
	if ScheduledInWindow(res, ids.C(0), 0, 50) {
		t.Fatal("paused process took a step inside the window")
	}

	rt2, err := New(echoConfig(3, 500))
	if err != nil {
		t.Fatal(err)
	}
	res2 := rt2.Run(&Exclude{Procs: []ids.Proc{ids.C(1)}, Inner: &RoundRobin{}})
	if res2.Outputs[1] != nil {
		t.Fatal("excluded process decided")
	}
	if res2.Outputs[0] == nil || res2.Outputs[2] == nil {
		t.Fatal("non-excluded processes should decide")
	}
	if res2.Inputs[1] != nil || StepsOf(res2, ids.C(1)) != nil {
		t.Fatal("excluded process should not participate")
	}
}

func TestScriptedScheduleOrder(t *testing.T) {
	cfg := echoConfig(2, 100)
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	seq := []ids.Proc{ids.C(1), ids.C(1), ids.C(1), ids.C(0)}
	res := rt.Run(&Scripted{Seq: seq, Tail: &RoundRobin{}})
	if res.Trace[0].Proc != ids.C(1) || res.Trace[1].Proc != ids.C(1) || res.Trace[2].Proc != ids.C(1) {
		t.Fatalf("scripted prefix not honored: %v", res.Trace[:4])
	}
	if err := DecidedAll(res); err != nil {
		t.Fatal(err)
	}
}

func TestNonParticipantNotSpawned(t *testing.T) {
	cfg := echoConfig(3, 100)
	cfg.Inputs[1] = nil
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := rt.Run(&RoundRobin{})
	if StepsOf(res, ids.C(1)) != nil {
		t.Fatal("non-participant took steps")
	}
	if res.Inputs[1] != nil {
		t.Fatal("non-participant shows an input")
	}
	if res.Outputs[0] == nil || res.Outputs[2] == nil {
		t.Fatal("participants should decide")
	}
}

func TestMaxConcurrencyAnalyzer(t *testing.T) {
	// Interleave two processes fully: concurrency 2; then a third alone.
	res := &Result{
		Trace: []Event{
			{Step: 0, Proc: ids.C(0), Kind: OpWrite},
			{Step: 1, Proc: ids.C(1), Kind: OpWrite},
			{Step: 2, Proc: ids.C(0), Kind: OpDecide},
			{Step: 3, Proc: ids.C(1), Kind: OpDecide},
			{Step: 4, Proc: ids.C(2), Kind: OpWrite},
			{Step: 5, Proc: ids.C(2), Kind: OpDecide},
		},
	}
	if got := MaxConcurrency(res); got != 2 {
		t.Fatalf("MaxConcurrency = %d, want 2", got)
	}
}

// loopConfig is a system whose bodies never return: nc C-processes writing
// and deciding, then reading forever, and one S-process querying forever.
// Every way a run of it ends leaves all of its bodies parked.
func loopConfig(nc, maxSteps int) Config {
	cfg := echoConfig(nc, maxSteps)
	cfg.NS = 1
	cfg.CBody = func(i int) Body {
		return func(e Ops) {
			e.Write(fmt.Sprintf("r/%d", i), e.Input())
			e.Decide(e.Input())
			for {
				e.Read("r/0")
			}
		}
	}
	cfg.SBody = func(int) Body {
		return func(e Ops) {
			for {
				e.QueryFD()
			}
		}
	}
	cfg.Pattern = fdet.FailureFree(1)
	return cfg
}

// recovered runs f and returns what it panicked with (nil if it returned).
func recovered(f func()) (x any) {
	defer func() { x = recover() }()
	f()
	return nil
}

// TestBodyPanicSurfacesFromRun: a panic in a process body comes out of Run,
// on the caller's goroutine, with the value the body panicked with — where a
// test or exp.Engine can recover it — and the bodies of the other processes,
// parked mid-run, are unwound all the same (their deferred calls run).
func TestBodyPanicSurfacesFromRun(t *testing.T) {
	type boom struct{ step int }
	unwound := 0
	cfg := loopConfig(3, 1000)
	loop := cfg.CBody
	cfg.CBody = func(i int) Body {
		if i == 1 {
			return func(e Ops) {
				e.Write("x", 1)
				panic(boom{step: 1})
			}
		}
		return func(e Ops) {
			defer func() { unwound++ }()
			loop(i)(e)
		}
	}
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	if x := recovered(func() { rt.Run(&RoundRobin{}) }); x != (boom{step: 1}) {
		t.Fatalf("Run panicked with %v, want the body's own value %v", x, boom{step: 1})
	}
	if unwound != 2 {
		t.Errorf("%d of the 2 other C-bodies were unwound", unwound)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines: %d before the run, %d after the panic", before, after)
	}
	// A body that misuses the interface before its first operation panics
	// out of Run the same way.
	cfg = echoConfig(1, 10)
	cfg.CBody = func(int) Body { return func(e Ops) { e.QueryFD() } }
	if rt, err = New(cfg); err != nil {
		t.Fatal(err)
	}
	if x := recovered(func() { rt.Run(&RoundRobin{}) }); x == nil || !strings.Contains(fmt.Sprint(x), "queried the failure detector") {
		t.Fatalf("Run panicked with %v, want the C-process QueryFD misuse", x)
	}
}

// TestRunIsSingleUse: a second Run panics on the caller's goroutine and says
// what to do instead (the twin of native's TestRearmRunNeedsReset).
func TestRunIsSingleUse(t *testing.T) {
	rt, err := New(echoConfig(2, 100))
	if err != nil {
		t.Fatal(err)
	}
	if res := rt.Run(&RoundRobin{}); res.Reason != ReasonAllDone {
		t.Fatalf("first run ended %v, want all-done", res.Reason)
	}
	x := recovered(func() { rt.Run(&RoundRobin{}) })
	if x == nil || !strings.Contains(fmt.Sprint(x), "sim.New") {
		t.Fatalf("second Run panicked with %v, want a message naming sim.New", x)
	}
}

// TestRuntimeLeavesNoGoroutine: a runtime holds a coroutine per process only
// while Run executes — none when it is built and never run, none after a run
// that ends with every body still parked, whoever ended it.
func TestRuntimeLeavesNoGoroutine(t *testing.T) {
	for _, c := range []struct {
		name  string
		sched Scheduler // nil: never run
		want  Reason
	}{
		{name: "New without Run"},
		{name: "cut by MaxSteps", sched: &RoundRobin{}, want: ReasonMaxSteps},
		{name: "cut by StopWhenDecided", sched: &StopWhenDecided{Inner: &RoundRobin{}}, want: ReasonScheduler},
		{name: "cut by a probe's exhausted prefix", sched: &Replay{Seq: []ids.Proc{ids.C(0), ids.S(0), ids.C(1)}}, want: ReasonScheduler},
	} {
		before := runtime.NumGoroutine()
		rt, err := New(loopConfig(3, 50))
		if err != nil {
			t.Fatal(err)
		}
		if c.sched != nil {
			if res := rt.Run(c.sched); res.Reason != c.want {
				t.Errorf("%s: run ended %v, want %v", c.name, res.Reason, c.want)
			}
		}
		// Not !=: the previous test's own goroutine may still be exiting.
		if after := runtime.NumGoroutine(); after > before {
			t.Errorf("%s: %d goroutines before, %d after", c.name, before, after)
		}
	}
}

// TestReleaseTakesKeysOutOfTheStore: Release is not a step — it consumes no
// scheduled step and leaves no trace event — the released keys are gone from
// the final store, a key released twice or never written is no trouble, and
// the keys around them are untouched.
func TestReleaseTakesKeysOutOfTheStore(t *testing.T) {
	cfg := echoConfig(1, 100)
	cfg.CBody = func(int) Body {
		return func(e Ops) {
			regs := e.Bind([]string{"a", "b", "c"})
			regs.Write(0, 1)
			regs.Write(1, 2)
			regs.Write(2, 3)
			e.Release([]string{"a", "b"})
			e.Release([]string{"b", "never"})
			e.Decide(regs.Read(2))
		}
	}
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := rt.Run(&RoundRobin{})
	if res.Outputs[0] != 3 {
		t.Fatalf("decided %v, want the value of the register that was not released", res.Outputs[0])
	}
	if res.Steps != 5 || len(res.Trace) != 5 {
		t.Errorf("%d steps and %d trace events for three writes, a read and a decision: Release is not a step", res.Steps, len(res.Trace))
	}
	if len(res.FinalStore) != 1 || res.FinalStore["c"] != 3 {
		t.Errorf("final store %v, want only c=3", res.FinalStore)
	}
}

// TestUseThroughARefilledTableFailsTheRun: a caller may refill a key slice
// it has released and bind it again — a paxos.Log does, window after window
// — and the handle it bound from the slice before still fails the run on
// its next use, naming the released key, not the live one the slice now
// holds; the new handle writes the live key.
func TestUseThroughARefilledTableFailsTheRun(t *testing.T) {
	for name, use := range map[string]func(r Regs){
		"read":  func(r Regs) { r.Read(0) },
		"write": func(r Regs) { r.WriteInt(0, 2) },
	} {
		cfg := echoConfig(1, 100)
		cfg.CBody = func(int) Body {
			return func(e Ops) {
				keys := []string{"x"}
				old := e.Bind(keys)
				old.Write(0, 1)
				e.Release(keys)
				keys[0] = "y"
				fresh := e.Bind(keys)
				fresh.Write(0, 3)
				if v := e.Read("y"); v != 3 {
					e.Decide(fmt.Sprintf("the new handle's write reads back %v by key, want 3", v))
					return
				}
				use(old)
				e.Decide(0)
			}
		}
		rt, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var res *Result
		x := recovered(func() { res = rt.Run(&RoundRobin{}) })
		if x == nil {
			t.Errorf("%s through a released handle whose slice was refilled: run ended deciding %v, want a use-after-release panic", name, res.Outputs[0])
			continue
		}
		msg := fmt.Sprint(x)
		for _, want := range []string{"use after release", "p1", `"x"`, name} {
			if !strings.Contains(msg, want) {
				t.Errorf("%s through a released handle whose slice was refilled: Run panicked with %v, want a message containing %q", name, x, want)
			}
		}
	}
}

// TestUseAfterReleaseFailsTheRun: a process that performs an operation on a
// register another process has released — the operation was already pending
// when the release happened, the worst case — panics out of Run with a
// message that names the process, the operation, the key and the step; so
// does a write, through a bound handle or by key.
func TestUseAfterReleaseFailsTheRun(t *testing.T) {
	for name, use := range map[string]func(e Ops, r Regs){
		"read":        func(e Ops, r Regs) { e.Read("x") },
		"write":       func(e Ops, r Regs) { e.Write("x", 2) },
		"bound read":  func(e Ops, r Regs) { r.ReadMany(nil) },
		"bound write": func(e Ops, r Regs) { r.WriteInt(0, 2) },
	} {
		cfg := echoConfig(2, 100)
		cfg.CBody = func(i int) Body {
			return func(e Ops) {
				r := e.Bind([]string{"x"})
				e.Write(fmt.Sprintf("turn/%d", i), 1)
				if i == 0 {
					e.Release([]string{"x"}) // runs as p1 goes on to park at its Decide
					e.Decide(0)
					return
				}
				use(e, r) // announced before p1 releases, granted after
				e.Decide(0)
			}
		}
		rt, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		x := recovered(func() { rt.Run(&RoundRobin{}) })
		msg := fmt.Sprint(x)
		for _, want := range []string{"use after release", "p2", `"x"`, strings.Fields(name)[len(strings.Fields(name))-1]} {
			if x == nil || !strings.Contains(msg, want) {
				t.Errorf("%s of a released register: Run panicked with %v, want a message containing %q", name, x, want)
			}
		}
	}
}
