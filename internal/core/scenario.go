package core

import (
	"fmt"
	"time"

	"wfadvice/internal/auto"
	"wfadvice/internal/fdet"
	"wfadvice/internal/kv"
	"wfadvice/internal/native"
	"wfadvice/internal/sim"
	"wfadvice/internal/task"
	"wfadvice/internal/vec"
	"wfadvice/internal/wfree"
)

// This file defines Scenario: one solvable EFD configuration — a task, the
// advice detector it needs, and the algorithm bodies that solve it —
// expressed once and executable on either backend. SimConfig yields a
// lockstep sim.Config and NativeConfig a hardware-speed native.Config from
// the same CBody/SBody factories, which is the "two backends, one algorithm
// surface" contract: zero per-algorithm code changes between the model
// runtime and real goroutines. cmd/efd-stress, efd-explore's -replay, the
// repo benchmark and the cross-backend conformance grid all build their
// systems through it.

// Scenario is a task plus the algorithm and advice that solve it, in
// backend-independent form.
type Scenario struct {
	// Name identifies the scenario ("consensus/n=4/omega").
	Name string
	// Task is the decision task the run is checked against.
	Task task.Task
	// NC and NS are the system dimensions; Inputs the task input vector.
	NC, NS int
	Inputs vec.Vector
	// CBody and SBody are the process programs, shared by both backends.
	// NewScenario builds each body once; the factories return it every run.
	CBody, SBody func(i int) sim.Body
	// Pattern is the S-process failure pattern; Detector generates the
	// advice histories; Stabilize is the time (model ticks) after which the
	// detector's eventual properties hold.
	Pattern   fdet.Pattern
	Detector  fdet.Detector
	Stabilize fdet.Time
	// Registers estimates the distinct register keys one run touches,
	// derived from the task's key shapes; it pre-sizes the native backend's
	// sharded register table.
	Registers int
	// Advice is how a waiting process waits on the native backend (yield
	// under tick, park on the change epoch under event). The sim backend
	// ignores it: its lockstep scheduler paces every step, so simulation
	// traces and experiment bytes are identical under either mode.
	Advice native.AdviceMode
	// Params are the parameters NewScenario built the scenario from, with
	// its defaults filled in; NewScenario(Params) builds it again.
	Params ScenarioParams
}

// SimConfig builds the lockstep backend configuration for one seeded run.
func (s *Scenario) SimConfig(seed int64, maxSteps int) sim.Config {
	return sim.Config{
		NC: s.NC, NS: s.NS, Inputs: s.Inputs.Clone(),
		CBody: s.CBody, SBody: s.SBody,
		Pattern:  s.Pattern,
		History:  s.Detector.History(s.Pattern, s.Stabilize, seed),
		MaxSteps: maxSteps,
	}
}

// NativeConfig builds the native backend configuration for one seeded run
// (tick 0 = native.DefaultTick).
func (s *Scenario) NativeConfig(seed int64, tick time.Duration) native.Config {
	return native.Config{
		NC: s.NC, NS: s.NS, Inputs: s.Inputs.Clone(),
		CBody: s.CBody, SBody: s.SBody,
		Pattern:   s.Pattern,
		History:   s.Detector.History(s.Pattern, s.Stabilize, seed),
		Tick:      tick,
		Registers: s.Registers,
		Advice:    s.Advice,
	}
}

// ScenarioParams selects and sizes a scenario.
type ScenarioParams struct {
	// Task is one of ScenarioTasks: "consensus" (direct Ω solver),
	// "kset" (direct vector-Ωk solver), "renaming" (Theorem 9 machine over
	// the Figure 4 automata), "prop1" (Theorem 9 machine at k=1 over the
	// Proposition 1 solver, here for consensus), "nset" (the Proposition 2
	// S-helpers with the trivial detector).
	Task string
	// N is the system size (NC = NS = N).
	N int
	// K is the agreement bound / concurrency level (tasks that use it).
	K int
	// J is the number of renaming participants (default N−1).
	J int
	// Crash crashes that many S-processes (highest indices first) at
	// CrashAt (default 50 ticks), always leaving at least one correct.
	Crash   int
	CrashAt fdet.Time
	// Detector overrides the task's default advice detector; one of
	// ScenarioDetectors compatible with the task.
	Detector string
	// Stabilize is the advice stabilization time in model ticks
	// (default 100). Before it, detector output is seeded noise — dueling
	// leaders, flapping vectors — which is exactly the regime stress runs
	// want to spend time in.
	Stabilize fdet.Time
	// Advice selects how waiting pollers wait on the native backend: "" or
	// "tick" (default) yields; "event" parks on the change epoch and wakes
	// on advice publications, register writes and the heartbeat. Advice is
	// published the same way under both. The sim backend is unaffected.
	Advice string
	// Chaos replaces the detector's pre-stabilization output with a hostile
	// schedule: "flap[:W]" (coherent rotation every W ticks), "lie[:W]"
	// (agreed-but-wrong, faulty-biased), "diverge[:W]" (per-module
	// disagreement). The wrapped detector still satisfies its family's
	// contract — the audits constrain only the post-stabilization suffix —
	// so verdicts must not change; see fdet.WithChaos.
	Chaos string
	// Storm compresses the Crash schedule into a burst: the victims die on
	// consecutive ticks starting at CrashAt instead of CrashAt apart, so
	// failover paths absorb churn faster than advice republishes.
	Storm bool
}

// ScenarioTasks lists the valid ScenarioParams.Task values.
func ScenarioTasks() []string {
	return []string{"consensus", "kset", "renaming", "prop1", "nset", "kv"}
}

// ScenarioDetectors lists the valid ScenarioParams.Detector values.
func ScenarioDetectors() []string { return []string{"omega", "vector", "trivial"} }

// ScenarioAdviceModes lists the valid ScenarioParams.Advice values.
func ScenarioAdviceModes() []string { return []string{"tick", "event"} }

// NewScenario validates p and builds the scenario.
func NewScenario(p ScenarioParams) (*Scenario, error) {
	if p.N < 2 {
		return nil, fmt.Errorf("scenario: need n ≥ 2, got %d", p.N)
	}
	if p.K <= 0 {
		p.K = 1
	}
	if p.J <= 0 {
		p.J = p.N - 1
	}
	if p.Stabilize <= 0 {
		p.Stabilize = 100
	}
	if p.CrashAt <= 0 {
		p.CrashAt = 50
	}
	if p.Crash >= p.N {
		return nil, fmt.Errorf("scenario: %d crashes leave no correct S-process (n=%d)", p.Crash, p.N)
	}
	chaos, err := fdet.ParseChaos(p.Chaos)
	if err != nil {
		return nil, fmt.Errorf("scenario: %v", err)
	}
	if p.Storm && p.Crash == 0 {
		return nil, fmt.Errorf("scenario: crash-storm needs crash > 0")
	}
	crashAt := map[int]fdet.Time{}
	for c := 0; c < p.Crash; c++ {
		at := p.CrashAt * fdet.Time(c+1)
		if p.Storm {
			at = p.CrashAt + fdet.Time(c)
		}
		// kv crashes LOWEST indices first: its LiveOmega advice elects the
		// lowest live replica, so each crash kills the acting leader and
		// leadership migrates. Every other task crashes highest-first,
		// leaving the advised MinCorrect leader standing.
		if p.Task == "kv" {
			crashAt[c] = at
		} else {
			crashAt[p.N-1-c] = at
		}
	}
	pat := fdet.NewPattern(p.N, crashAt)
	advice, err := native.ParseAdviceMode(p.Advice)
	if err != nil {
		return nil, fmt.Errorf("scenario: %v", err)
	}

	s := &Scenario{NC: p.N, NS: p.N}
	det := p.Detector
	pick := func(def string, allowed ...string) (string, error) {
		if det == "" {
			return def, nil
		}
		for _, a := range allowed {
			if det == a {
				return det, nil
			}
		}
		return "", fmt.Errorf("scenario: detector %q incompatible with task %q (want one of %v)", det, p.Task, allowed)
	}

	switch p.Task {
	case "consensus":
		d, err := pick("omega", "omega", "vector")
		if err != nil {
			return nil, err
		}
		s.Task = task.NewConsensus(p.N)
		s.Inputs = intInputs(p.N)
		s.Registers = directRegisters(p.N, p.N, 1)
		dc := DirectConfig{NC: p.N, NS: p.N, K: 1, LeaderVec: OmegaLeader}
		if d == "vector" {
			s.Detector = fdet.VectorOmegaK{K: 1, GoodPos: 0}
			dc.LeaderVec = VectorLeader
		} else {
			s.Detector = fdet.Omega{}
		}
		s.CBody, s.SBody = dc.DirectCBody, dc.DirectSBody
		s.Name = fmt.Sprintf("consensus/n=%d/%s", p.N, d)
	case "kset":
		if _, err := pick("vector", "vector"); err != nil {
			return nil, err
		}
		if p.K >= p.N {
			return nil, fmt.Errorf("scenario: kset needs k < n, got k=%d n=%d", p.K, p.N)
		}
		s.Task = task.NewSetAgreement(p.N, p.K)
		s.Inputs = intInputs(p.N)
		s.Registers = directRegisters(p.N, p.N, p.K)
		s.Detector = fdet.VectorOmegaK{K: p.K, GoodPos: 0}
		dc := DirectConfig{NC: p.N, NS: p.N, K: p.K, LeaderVec: VectorLeader}
		s.CBody, s.SBody = dc.DirectCBody, dc.DirectSBody
		s.Name = fmt.Sprintf("kset/n=%d/k=%d/vector", p.N, p.K)
	case "renaming":
		if _, err := pick("vector", "vector"); err != nil {
			return nil, err
		}
		if p.J >= p.N {
			return nil, fmt.Errorf("scenario: renaming needs j < n, got j=%d n=%d", p.J, p.N)
		}
		// The Figure 2 leader rule keys instances to participants while at
		// most k processes participate; a decided participant stops driving,
		// so liveness needs the advice positions to take over eventually,
		// i.e. more participants than the concurrency level (as in E6).
		if p.J <= p.K {
			return nil, fmt.Errorf("scenario: renaming needs j > k, got j=%d k=%d", p.J, p.K)
		}
		s.Task = task.NewRenaming(p.N, p.J, p.J+p.K-1)
		s.Inputs = vec.New(p.N)
		for i := 0; i < p.J; i++ {
			s.Inputs[i] = i + 1
		}
		s.Detector = fdet.VectorOmegaK{K: p.K, GoodPos: 0}
		s.Registers = machineRegisters(p.N, p.N)
		mc := MachineConfig{NC: p.N, NS: p.N, K: p.K,
			Factory: func(i int, _ sim.Value) auto.Automaton { return wfree.NewRenaming(i) }}
		s.CBody, s.SBody = mc.SolverCBody, mc.SolverSBody
		s.Name = fmt.Sprintf("renaming/n=%d/j=%d/k=%d/vector", p.N, p.J, p.K)
	case "prop1":
		if _, err := pick("vector", "vector"); err != nil {
			return nil, err
		}
		// Proposition 1's solver is 1-concurrent only; the Theorem 9 machine
		// at k=1 is what makes it correct under real concurrency — the same
		// automaton value on both backends, zero changes.
		tk := task.NewConsensus(p.N)
		s.Task = tk
		s.Inputs = intInputs(p.N)
		s.Detector = fdet.VectorOmegaK{K: 1, GoodPos: 0}
		s.Registers = machineRegisters(p.N, p.N)
		mc := MachineConfig{NC: p.N, NS: p.N, K: 1,
			Factory: func(i int, input sim.Value) auto.Automaton { return wfree.NewProp1(tk, i, input) }}
		s.CBody, s.SBody = mc.SolverCBody, mc.SolverSBody
		s.Name = fmt.Sprintf("prop1/n=%d/vector", p.N)
	case "kv":
		if _, err := pick("omega", "omega"); err != nil {
			return nil, err
		}
		// Clerks run a fixed deterministic script (seeded from their input);
		// with Crash > 0 the advised leader actually dies and leadership
		// migrates.
		s = kvScenario(p.N, p.N, p.N*kvScriptOps, kv.ReplicaConfig{}, kv.ClerkConfig{Ops: kvScriptOps, PutFrac: 0.5})
		s.Name = fmt.Sprintf("kv/n=%d/omega", p.N)
	case "nset":
		if _, err := pick("trivial", "trivial"); err != nil {
			return nil, err
		}
		s.Task = task.NewSetAgreement(p.N, p.N)
		s.Inputs = intInputs(p.N)
		s.Registers = 2 * p.N // in/i plus the V/q helper slots
		s.Detector = fdet.Trivial{}
		sh := SHelperConfig{NC: p.N, NS: p.N}
		s.CBody, s.SBody = sh.SHelperCBody, sh.SHelperSBody
		s.Name = fmt.Sprintf("nset/n=%d/trivial", p.N)
	default:
		return nil, fmt.Errorf("scenario: unknown task %q (valid: %v)", p.Task, ScenarioTasks())
	}
	s.Pattern, s.Stabilize, s.Advice, s.Params = pat, p.Stabilize, advice, p
	if chaos.Enabled() {
		// The wrapper composes over whatever detector the task picked: the
		// same scenario machinery serves both backends a hostile history.
		s.Detector = fdet.WithChaos(s.Detector, chaos)
	}
	if p.Crash > 0 {
		s.Name += fmt.Sprintf("/crash=%d", p.Crash)
		if p.Storm {
			s.Name += "/storm"
		}
	}
	// The advice mode keys the scenario like crash does: yielding and
	// parking waits have very different latency profiles. Chaos keys them too — a
	// flapping prefix is a different latency world.
	if advice != native.AdviceTick {
		s.Name += "/advice=" + advice.String()
	}
	if chaos.Enabled() {
		s.Name += "/chaos=" + chaos.Suffix()
	}
	s.CBody, s.SBody = builtOnce(s.NC, s.CBody), builtOnce(s.NS, s.SBody)
	return s, nil
}

// builtOnce calls factory once per process and returns a factory that hands
// out those bodies. Every body keeps its per-run state inside the call, so
// one body serves every run of the scenario, on any number of runtimes at
// once, and re-arming a runtime builds none.
func builtOnce(n int, factory func(i int) sim.Body) func(i int) sim.Body {
	bodies := make([]sim.Body, n)
	for i := range bodies {
		bodies[i] = factory(i)
	}
	return func(i int) sim.Body { return bodies[i] }
}

// kvScriptOps is the per-clerk script length of the kv scenario: small
// enough that conformance histories stay inside the trustless DFS
// linearization search, large enough to exercise batching, dedup and lease
// reads.
const kvScriptOps = 4

// kvScenario is the one place the replicated-KV system is assembled: nc
// clerks (cc) over ns replicas (rc, lease reads on) chaining paxos instances
// into a log under LiveOmega advice — an Ω history that tracks the lowest
// LIVE replica — with the register table pre-sized for slots log slots (each
// ns proposer blocks plus a decision register, beside the request/reply
// pairs). The task's ∆ is linearizability of the decided sessions. Name,
// failure pattern, stabilization, advice mode and chaos are the caller's.
func kvScenario(nc, ns, slots int, rc kv.ReplicaConfig, cc kv.ClerkConfig) *Scenario {
	rc.NC, rc.NS, rc.LeaseReads = nc, ns, true
	cc.NC, cc.NS = nc, ns
	return &Scenario{
		NC: nc, NS: ns,
		Task:      kv.NewTask(nc),
		Inputs:    intInputs(nc),
		Detector:  fdet.LiveOmega{},
		Registers: kv.Registers(nc, ns, slots),
		CBody:     cc.Body, SBody: rc.Body,
	}
}

// intInputs is the default input vector: process i proposes 100+i.
func intInputs(n int) vec.Vector {
	v := vec.New(n)
	for i := range v {
		v[i] = 100 + i
	}
	return v
}

// directRegisters estimates the key population of a direct-solver run from
// its key shapes: nc input registers in/i, plus k consensus instances
// cons/j/* of ns proposer blocks and one decision register each.
func directRegisters(nc, ns, k int) int {
	return nc + k*(ns+1)
}

// machineRegisters estimates the key population of a Theorem 9 machine run:
// inputs and the ovec register, plus the minted consensus instances —
// admission slots adm/t and one cell/a/s per simulated step, each an
// (nc+ns)-block instance plus its decision register. Cell keys grow with
// the simulated run, so this is a working-set estimate (a few steps per
// code), capped so a mis-estimate can only waste a little map capacity.
func machineRegisters(nc, ns int) int {
	perInstance := nc + ns + 1
	instances := nc /* admission slots */ + 4*nc /* ~4 steps per code */
	est := nc + 1 + instances*perInstance
	if est > 1<<15 {
		est = 1 << 15
	}
	return est
}
