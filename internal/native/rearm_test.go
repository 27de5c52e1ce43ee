package native_test

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"wfadvice/internal/core"
	"wfadvice/internal/fdet"
	"wfadvice/internal/native"
	"wfadvice/internal/sim"
	"wfadvice/internal/vec"
)

// This file tests the runtime's lifecycle — build once, Reset, Run — and what
// it promises about the boundary between two runs of one Runtime. CI repeats
// the TestRearm tests under -race at two and four processors.

// mustPanic runs f and returns the message it panicked with.
func mustPanic(t *testing.T, f func()) (msg string) {
	t.Helper()
	defer func() {
		x := recover()
		if x == nil {
			t.Fatal("no panic")
		}
		msg = fmt.Sprint(x)
	}()
	f()
	return ""
}

// TestRearmRunNeedsReset: an arming is good for one Run. A second Run used
// to die in the advice service's goroutine, closing a closed channel, where
// no caller could recover; now it panics on the caller's goroutine and says
// what is missing, as does a Run on a Runtime that never had a Config. The
// runtime is none the worse for it: Reset, and it runs.
func TestRearmRunNeedsReset(t *testing.T) {
	cfg := native.Config{
		NC: 1, Inputs: vec.Of(7), Pattern: fdet.FailureFree(0),
		CBody: func(int) sim.Body { return func(e sim.Ops) { e.Decide(e.Input()) } },
	}
	rt, err := native.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res := rt.Run(time.Minute); res.Outputs[0] != 7 {
		t.Fatalf("first run decided %v, want 7", res.Outputs[0])
	}
	for name, r := range map[string]*native.Runtime{"second Run": rt, "Run on a zero Runtime": new(native.Runtime)} {
		if msg := mustPanic(t, func() { r.Run(time.Minute) }); !strings.Contains(msg, "Reset") {
			t.Errorf("%s panicked with %q, want a message naming Reset", name, msg)
		}
	}
	// A Reset the config fails leaves the runtime unarmed, not half-armed.
	if err := rt.Reset(native.Config{NC: 1}); err == nil {
		t.Fatal("Reset accepted one C-process with no inputs")
	}
	mustPanic(t, func() { rt.Run(time.Minute) })
	// A negative tick is refused too, not run at the default.
	negTick := cfg
	negTick.Tick = -time.Millisecond
	if err := rt.Reset(negTick); err == nil {
		t.Fatal("Reset accepted a negative tick")
	}
	mustPanic(t, func() { rt.Run(time.Minute) })
	if err := rt.Reset(cfg); err != nil {
		t.Fatal(err)
	}
	if res := rt.Run(time.Minute); res.Reason != native.ReasonAllDecided || res.Outputs[0] != 7 {
		t.Fatalf("run after Reset ended %v with %v, want all-decided with 7", res.Reason, res.Outputs[0])
	}
}

// TestRearmDecisionsBelongToTheirInstance re-arms one runtime a few hundred
// times over the consensus scenario with inputs that name their instance.
// The scenario's own instances all have the same inputs, so there a decision
// register that survived Reset would decide the next instance at once and
// pass the ∆ check; here it fails validity. The key tables are the
// scenario's, so from the second instance on every Bind takes last run's
// handle back.
func TestRearmDecisionsBelongToTheirInstance(t *testing.T) {
	for _, advice := range []string{"tick", "event"} {
		s := scenario(t, core.ScenarioParams{Task: "consensus", N: 4, Stabilize: 4, Advice: advice})
		rt := new(native.Runtime)
		for r := 0; r < 250; r++ {
			cfg := s.NativeConfig(int64(r), tick)
			cfg.Inputs = cfg.Inputs.Clone() // the scenario's vector is shared
			for i := range cfg.Inputs {
				cfg.Inputs[i] = 1000*r + i
			}
			if err := rt.Reset(cfg); err != nil {
				t.Fatal(err)
			}
			res := rt.Run(10 * time.Second)
			if err := native.Check(s.Task, res); err != nil {
				t.Fatalf("%s wait, instance %d: %v", advice, r, err)
			}
			for i, d := range res.Outputs {
				if x, _ := d.(int); x/1000 != r {
					t.Fatalf("%s wait, instance %d: p%d decided %v, another instance's input", advice, r, i+1, d)
				}
			}
		}
	}
}

// TestRearmRegistersAndAdviceStartEmpty: the second run on a runtime first
// reads every key the first one wrote — an int cell, a typed cell, a cell the
// first run drove into the general box, through keyed and bound reads — and
// sees the register nobody has written; an int written into what was the
// typed cell stays packed (a cell left in typed mode would generalise on it);
// and with a nil history the advice of the first run's detector is gone.
func TestRearmRegistersAndAdviceStartEmpty(t *testing.T) {
	type rec struct{ A, B int }
	keys := []string{"int", "typed", "general"}
	pat := fdet.FailureFree(1)
	cfg := native.Config{NC: 1, NS: 1, Inputs: vec.Of(1), Pattern: pat, Tick: tick, Advice: native.AdviceEvent}
	wait := func(e sim.Ops, key string) {
		for {
			seen := e.Epoch()
			if e.Read(key) != nil {
				return
			}
			e.AwaitEpoch(seen)
		}
	}

	first := cfg
	first.History = fdet.Omega{}.History(pat, 0, 1)
	first.CBody = func(int) sim.Body {
		return func(e sim.Ops) {
			r := e.Bind(keys)
			r.WriteInt(0, 1<<40)
			r.Write(1, rec{1, 2})
			r.Write(2, rec{3, 4})
			r.Write(2, 5) // a second dynamic type: the general box
			if got := r.Read(2); got != 5 {
				t.Errorf("general cell reads %v, want 5", got)
			}
			wait(e, "advised")
			e.Decide(1)
		}
	}
	first.SBody = func(int) sim.Body {
		return func(e sim.Ops) {
			if got := e.QueryFD(); got != 0 {
				t.Errorf("first run's advice = %v, want leader 0", got)
			}
			e.Write("advised", true)
		}
	}

	second := cfg // nil history
	second.CBody = func(int) sim.Body {
		return func(e sim.Ops) {
			r := e.Bind(keys)
			for i, k := range keys {
				if got := e.Read(k); got != nil {
					t.Errorf("second run: keyed read of %q = %v, want nil", k, got)
				}
				if got := r.Read(i); got != nil {
					t.Errorf("second run: bound read of %q = %v, want nil", k, got)
				}
				if x, ok := r.ReadInt(i); ok {
					t.Errorf("second run: typed read of %q = %d, want none", k, x)
				}
			}
			if got := e.Read("advised"); got != nil {
				t.Errorf("second run: keyed read of %q = %v, want nil", "advised", got)
			}
			for i := range keys {
				r.WriteInt(i, 1<<41+i)
			}
			e.Write("go", true)
			wait(e, "advised")
			e.Decide(2)
		}
	}
	second.SBody = func(int) sim.Body {
		return func(e sim.Ops) {
			wait(e, "go")
			if got := e.QueryFD(); got != nil {
				t.Errorf("second run's advice under a nil history = %v, want nil", got)
			}
			e.Write("advised", true)
		}
	}

	rt, err := native.New(first)
	if err != nil {
		t.Fatal(err)
	}
	if res := rt.Run(10 * time.Second); res.Reason != native.ReasonAllDecided {
		t.Fatalf("first run ended %v", res.Reason)
	}
	before := native.Telemetry.Snapshot()
	if err := rt.Reset(second); err != nil {
		t.Fatal(err)
	}
	res := rt.Run(10 * time.Second)
	if res.Reason != native.ReasonAllDecided || res.Outputs[0] != 2 {
		t.Fatalf("second run ended %v with %v, want all-decided with 2", res.Reason, res.Outputs[0])
	}
	if n := native.Telemetry.Snapshot().Delta(before).Map()["cell_generalised"]; n != 0 {
		t.Errorf("second run generalised %d cells writing ints into emptied ones, want 0", n)
	}
}

// TestRearmShapeChange: NC, NS, the participant set, the register estimate,
// the wait and the crash pattern may all differ from what the runtime last
// ran, in any order, and what a run reports is that run's: the processes it
// killed, not those of the runs before it.
func TestRearmShapeChange(t *testing.T) {
	shapes := []core.ScenarioParams{
		{Task: "consensus", N: 4, Stabilize: 4, Advice: "event"},
		{Task: "consensus", N: 3, Stabilize: 4},
		{Task: "kset", N: 5, K: 2, Stabilize: 4, Advice: "event"},
		{Task: "kset", N: 4, K: 1, Stabilize: 4},
		{Task: "nset", N: 3, Stabilize: 1},
	}
	rt := new(native.Runtime)
	for round := 0; round < 3; round++ {
		for _, p := range shapes {
			s := scenario(t, p)
			cfg := s.NativeConfig(int64(round), tick)
			if (p.Task == "consensus" || p.K == 1) && round == 1 {
				cfg.Inputs = cfg.Inputs.Clone()
				cfg.Inputs[1] = nil // p2 sits this one out
			}
			if err := rt.Reset(cfg); err != nil {
				t.Fatal(err)
			}
			res := rt.Run(10 * time.Second)
			if err := native.Check(s.Task, res); err != nil {
				t.Fatalf("round %d, %s: %v", round, s.Name, err)
			}
			if want := cfg.Inputs.Participants(); len(res.Decisions) != len(want) {
				t.Fatalf("round %d, %s: %d decisions for participants %v", round, s.Name, len(res.Decisions), want)
			}
		}
	}

	// Crashes are per run: two victims, then none, then one, on one runtime.
	for _, crashes := range []map[int]fdet.Time{{0: 0, 2: 0}, nil, {1: 0}} {
		pat := fdet.NewPattern(3, crashes)
		err := rt.Reset(native.Config{
			NC: 1, NS: 3, Inputs: vec.Of(1), Pattern: pat, Tick: tick, Advice: native.AdviceEvent,
			SBody: func(int) sim.Body {
				return func(e sim.Ops) {
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
					// Give every victim the time to take the operation that kills it.
					for start := time.Now(); time.Since(start) < 20*tick; {
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
		if len(res.Crashed) != len(pat.FaultySet()) || (len(res.Crashed) > 0 && !reflect.DeepEqual(res.Crashed, pat.FaultySet())) {
			t.Errorf("pattern %v: run reports %v killed, want %v", crashes, res.Crashed, pat.FaultySet())
		}
	}
}

// TestRearmSharedScenarioBodies: a scenario builds each process body once
// and hands the same body to every run, so four workers run one body
// concurrently, each re-arming its own runtime back to back. A body that kept
// per-run state outside the call — a proposer, a replica, an automaton, a
// collect buffer — would show here as an instance that does not decide or
// that breaks ∆.
func TestRearmSharedScenarioBodies(t *testing.T) {
	for _, p := range []core.ScenarioParams{
		{Task: "consensus", N: 4, Stabilize: 4, Advice: "event"},
		{Task: "kset", N: 4, K: 2, Stabilize: 4},
		{Task: "prop1", N: 3, Stabilize: 4},
		{Task: "renaming", N: 4, K: 1, Stabilize: 4, Advice: "event"},
	} {
		s := scenario(t, p)
		participants := len(s.Inputs.Participants())
		rep, err := native.Stress(s.Name, s.Task, func(seed int64) (native.Config, error) {
			return s.NativeConfig(seed, tick), nil
		}, native.StressOptions{Duration: 100 * time.Millisecond, Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Runs == 0 || rep.Failed() || rep.Decisions != rep.Runs*participants {
			t.Fatalf("%s: %d runs, %d decisions\n%s", s.Name, rep.Runs, rep.Decisions, rep.Render())
		}
	}
}

// TestRearmTeardownAllocs: unwinding a process costs no heap object, whether
// it is stopped at the end of the run or crashed by the pattern. Each case
// re-arms one runtime a few hundred times with bodies that allocate nothing
// and counts the objects per unwound process. The run's goroutine defers only
// Env.exited: restoring a second defer beside it (the wait group's Done)
// makes the Go runtime save that defer's state on the heap at every recover,
// one object per unwound process, and fails this test in both cases. The
// race detector turns open-coded defers off, so only the plain run catches
// it.
func TestRearmTeardownAllocs(t *testing.T) {
	keys := []string{"x"}
	loop := func(e sim.Ops) {
		r := e.Bind(keys)
		for {
			seen := e.Epoch()
			r.Read(0)
			e.AwaitEpoch(seen)
		}
	}
	decide := func(e sim.Ops) { e.Decide(1) }
	// waitThenDecide gives a crash victim the time to take the operation
	// that kills it.
	waitThenDecide := func(e sim.Ops) {
		for start := time.Now(); time.Since(start) < 20*tick; {
			e.AwaitEpoch(e.Epoch())
		}
		e.Decide(1)
	}
	const ns = 3
	for _, c := range []struct {
		name    string
		crashed map[int]fdet.Time
		cbody   sim.Body
	}{
		{name: "stopped", cbody: decide},
		{name: "crashed", crashed: map[int]fdet.Time{0: 0}, cbody: waitThenDecide},
	} {
		cfg := native.Config{
			NC: 1, NS: ns, Inputs: vec.Of(1), Pattern: fdet.NewPattern(ns, c.crashed), Tick: tick,
			CBody: func(int) sim.Body { return c.cbody },
			SBody: func(int) sim.Body { return loop },
		}
		rt := new(native.Runtime)
		crashes := 0
		run := func() {
			if err := rt.Reset(cfg); err != nil {
				t.Fatal(err)
			}
			res := rt.Run(10 * time.Second)
			if res.Reason != native.ReasonAllDecided {
				t.Fatalf("%s: run ended %v", c.name, res.Reason)
			}
			// A victim the scheduler kept off the CPU until the stop unwinds
			// as stopped instead; either way it unwinds.
			crashes += len(res.Crashed)
		}
		for i := 0; i < 20; i++ {
			run() // warm the runtime, its threads and the Go runtime's caches
		}
		if per := testing.AllocsPerRun(200, run) / ns; per != 0 {
			t.Errorf("%s: %.2f objects per unwound process, want 0", c.name, per)
		}
		if (crashes > 0) != (c.crashed != nil) {
			t.Errorf("%s: %d crashes injected", c.name, crashes)
		}
	}
}

// TestRearmStress drives the re-arm the way its one caller does: Stress over
// consensus n=4 with two S-processes crashed mid-instance, under both waits,
// with the tracer on. Every instance passes the checker; the report's crash
// count is the sum of per-run kills (it equals the injections counted, where
// a crashed flag surviving Reset would count a victim again in every later
// run); trace run ids follow the instance counter; no cell leaves its
// representation (an emptied typed cell left in typed mode would generalise
// on the next instance's int write); parks still end in wakes, not in the
// heartbeat's release; and when Stress returns every goroutine it started is
// gone.
func TestRearmStress(t *testing.T) {
	for _, advice := range []string{"tick", "event"} {
		s := scenario(t, core.ScenarioParams{Task: "consensus", N: 4, Stabilize: 4, Crash: 2, CrashAt: 2, Advice: advice})
		base := runtime.NumGoroutine()
		for runs := 0; runs < 200; {
			tracer := native.NewTracer(1 << 16)
			rep, err := native.Stress(s.Name, s.Task, func(seed int64) (native.Config, error) {
				return s.NativeConfig(seed, tick), nil
			}, native.StressOptions{Duration: 100 * time.Millisecond, Workers: 2, Seed: int64(runs), Tracer: tracer})
			if err != nil {
				t.Fatal(err)
			}
			runs += rep.Runs
			if rep.Failed() || rep.Decisions != rep.Runs*s.NC {
				t.Fatalf("%s wait: %d runs, %d decisions\n%s", advice, rep.Runs, rep.Decisions, rep.Render())
			}
			if got := rep.Counters["run_start"]; got != int64(rep.Runs) {
				t.Errorf("%s wait: run_start delta %d, want %d runs", advice, got, rep.Runs)
			}
			if got := rep.Counters["crash_inject"]; got != int64(rep.Crashes) || rep.Crashes > 2*rep.Runs {
				t.Errorf("%s wait: %d crashes reported over %d runs, %d injected", advice, rep.Crashes, rep.Runs, got)
			}
			if n := rep.Counters["cell_generalised"]; n != 0 {
				t.Errorf("%s wait: %d cells generalised, want 0", advice, n)
			}
			if park, timeout := rep.Counters["notify_park"], rep.Counters["notify_timeout"]; advice == "event" && (park == 0 || 4*timeout > park) {
				t.Errorf("event wait: %d parks, %d of them released by the heartbeat: wakes are being lost", park, timeout)
			}
			// Every instance is traced under its own number: the run_start
			// events carry rep.Runs distinct ids, none past the counter.
			d := tracer.Dump()
			if len(d.Drops) != 0 {
				continue // the ring lapped; nothing to count
			}
			starts := map[int64]int{}
			for _, ev := range d.Events {
				if ev.Kind == "run_start" {
					starts[ev.Run]++
				}
			}
			if len(starts) != rep.Runs {
				t.Errorf("%s wait: run_start traced under %d ids for %d runs", advice, len(starts), rep.Runs)
			}
			for id, n := range starts {
				if n != 1 || id < 0 || id >= int64(rep.Runs+rep.Workers) {
					t.Errorf("%s wait: %d run_start events under id %d (%d runs)", advice, n, id, rep.Runs)
				}
			}
		}
		// Exiting goroutines may still be winding down.
		for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%s wait: %d goroutines after the stress, %d before it", advice, runtime.NumGoroutine(), base)
			}
		}
	}
}
