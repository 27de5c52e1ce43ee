package core

import (
	"fmt"
	"time"

	"wfadvice/internal/fdet"
	"wfadvice/internal/kv"
	"wfadvice/internal/native"
	"wfadvice/internal/obs"
)

// This file is the stress harness behind cmd/efd-kv. Unlike native.Stress —
// which runs back-to-back short instances of a one-shot decision task — a KV
// run is ONE long-lived replicated system: NS replicas chain multi-Paxos slots
// under live Ω advice while NC clerks issue an open-loop Get/Put workload
// against it. Throughput is client operations per second, latency is
// completion minus the operation's due time on the global open-loop
// schedule (queueing counts against the service, in the style of "Are
// Lock-Free Concurrent Algorithms Practically Wait-Free?"), and the checker
// verdict is linearizability of every clerk session, established post hoc
// by the kv task from the decided *Session values.

// KVStressOptions configures one open-loop KV stress run.
type KVStressOptions struct {
	// N is the number of replicas (S-processes).
	N int
	// Clients is the number of clerk sessions (C-processes); 0 = N.
	Clients int
	// Shards is the state-machine shard count (0 = kv default).
	Shards int
	// Rate is the total offered load in client ops/sec across all clerks;
	// each clerk's k-th operation is due at k·(Clients/Rate) on its own
	// schedule. 0 runs closed-loop (issue on completion).
	Rate float64
	// Duration is the issue window: clerks stop starting operations once it
	// elapses, then the run drains in-flight replies.
	Duration time.Duration
	// RunBudget caps the whole run including the drain (0 = Duration + 10s).
	// A run cut off with undecided clerks counts in Undecided.
	RunBudget time.Duration
	// CrashLeader injects that many leader crashes. Victim i is whichever
	// replica the (possibly chaos-wrapped) advice names at the i-th crash
	// time — the crash schedule chases the advice, so every kill hits the
	// acting leader, not a bystander.
	CrashLeader int
	// CrashAt is the first crash time in ticks (0 = Stabilize + 100, so the
	// victim has actually been leading when it dies).
	CrashAt fdet.Time
	// CrashStorm compresses the schedule into back-to-back kills (CrashAt,
	// CrashAt+1, ...) instead of spacing them CrashAt apart, so failovers
	// overlap. Needs CrashLeader > 0.
	CrashStorm bool
	// Chaos wraps the advice in a hostile pre-stabilization schedule
	// (fdet.WithChaos); the zero value leaves LiveOmega untouched.
	Chaos fdet.AdviceChaos
	// ClerkTimeout bounds each client operation's reply wait; on expiry the
	// clerk records the op TimedOut and moves on (0 = wait forever).
	ClerkTimeout time.Duration
	// Stabilize is the advice stabilization time in ticks (0 = 100).
	Stabilize fdet.Time
	// Tick is the wall-clock length of one advice tick (0 = native.DefaultTick).
	Tick time.Duration
	// Advice is how waiting processes wait (tick yields, event parks).
	Advice native.AdviceMode
	// Seed seeds the advice history noise and the clerk scripts.
	Seed int64
	// Keys is the clerk keyspace size (0 = kv default).
	Keys int
	// PutFrac is the clerk Put fraction (0 = kv default 0.5).
	PutFrac float64
	// Pin locks every process goroutine to its own OS thread.
	Pin bool
	// Tracer, if non-nil, records the run's decision lifecycle.
	Tracer *obs.Tracer
	// Latency, if non-nil, receives per-op open-loop latencies; the harness
	// allocates its own when nil. Passing one in lets the efd-kv debug
	// endpoint serve live percentiles mid-run.
	Latency *obs.Histogram
}

func (o KVStressOptions) clients() int {
	if o.Clients > 0 {
		return o.Clients
	}
	return o.N
}

func (o KVStressOptions) stabilize() fdet.Time {
	if o.Stabilize > 0 {
		return o.Stabilize
	}
	return 100
}

func (o KVStressOptions) crashAt() fdet.Time {
	if o.CrashAt > 0 {
		return o.CrashAt
	}
	return o.stabilize() + 100
}

func (o KVStressOptions) runBudget() time.Duration {
	if o.RunBudget > 0 {
		return o.RunBudget
	}
	return o.Duration + 10*time.Second
}

// KVScenarioName renders the stable scenario key the run reports under —
// the CI checks select rows by it, so the shape (and nothing
// machine-specific) goes in. Closed-loop runs (Rate 0) carry their own
// suffix: issue-on-completion latency is a different quantity from
// open-loop latency and the two must never share a key.
func (o KVStressOptions) KVScenarioName() string {
	name := fmt.Sprintf("kv/n=%d/clients=%d", o.N, o.clients())
	if o.CrashLeader > 0 {
		name += fmt.Sprintf("/crash-leader=%d", o.CrashLeader)
		if o.CrashStorm {
			name += "/storm"
		}
	}
	if o.Advice == native.AdviceEvent {
		name += "/advice=event"
	}
	if o.Chaos.Enabled() {
		name += "/chaos=" + o.Chaos.Suffix()
	}
	if o.Rate == 0 {
		name += "/closed-loop"
	}
	return name
}

// kvCrashSchedule builds the advised-victim crash schedule: for each crash
// time it re-derives the advice history over the pattern built so far and
// kills whichever replica module 0's advice names at that instant. Earlier
// victims are already crashed in the pattern, so a sane inner detector
// never re-names them; a hostile chaos prefix can (it rotates over the
// whole space), in which case the schedule falls back to the lowest live
// replica. At least one replica always survives.
func kvCrashSchedule(det fdet.Detector, ns, crashes int, first fdet.Time, storm bool, stabilize fdet.Time, seed int64) map[int]fdet.Time {
	crashAt := map[int]fdet.Time{}
	for c := 0; c < crashes && c < ns-1; c++ {
		at := first * fdet.Time(c+1)
		if storm {
			at = first + fdet.Time(c)
		}
		pat := fdet.NewPattern(ns, crashAt)
		h := det.History(pat, stabilize, seed)
		victim, ok := h.Query(0, at).(int)
		if !ok || victim < 0 || victim >= ns || pat.Crashed(victim, at) {
			victim = pat.MinAlive(at)
		}
		crashAt[victim] = at
	}
	return crashAt
}

// kvLiveSlots is the number of log slots the register table of a stress run
// is sized for. It does not grow with the run: replicas give a window's
// registers back once every frontier has passed it, so the table holds the
// window being filled and the one or two behind it that the slowest
// replica's next publication will free. A crashed replica pins the log from
// its frontier on and the table then outgrows the estimate, which costs map
// growth, never correctness.
const kvLiveSlots = 4 * 64

// scenario assembles the system one run executes: the shared kv scenario
// sized for the offered load, under the (possibly chaos-wrapped) advice and
// the crash pattern that chases it. cc carries the clerk fields that are the
// harness's own — workload shape, open-loop clock, op observer.
func (o KVStressOptions) scenario(cc kv.ClerkConfig) *Scenario {
	nc, ns := o.clients(), o.N
	s := kvScenario(nc, ns, kvLiveSlots, kv.ReplicaConfig{Shards: o.Shards}, cc)
	s.Name = o.KVScenarioName()
	s.Detector = fdet.WithChaos(s.Detector, o.Chaos)
	// The crash schedule chases whatever the detector advises, so every
	// kill hits the acting leader.
	s.Pattern = fdet.NewPattern(ns, kvCrashSchedule(s.Detector, ns, o.CrashLeader, o.crashAt(), o.CrashStorm, o.stabilize(), o.Seed))
	s.Stabilize, s.Advice = o.stabilize(), o.Advice
	return s
}

// KVStress runs one open-loop replicated-KV system and reports it in the
// same shape as native.Stress so the CI checks and the BENCH tooling
// consume either. Runs is 1 (one long-lived system), Ops counts completed client
// operations, and a checker failure is a linearizability violation across
// the decided clerk sessions.
func KVStress(opt KVStressOptions) (*native.StressReport, error) {
	if opt.N < 1 {
		return nil, fmt.Errorf("kv stress: need at least one replica, got %d", opt.N)
	}
	if opt.Duration <= 0 {
		return nil, fmt.Errorf("kv stress: need a positive duration, got %v", opt.Duration)
	}
	if opt.CrashStorm && opt.CrashLeader < 1 {
		return nil, fmt.Errorf("kv stress: crash-storm needs crash-leader > 0")
	}
	hist := opt.Latency
	if hist == nil {
		hist = obs.NewHistogram()
	}
	startCounters := native.Telemetry.Snapshot()
	startKV := kv.Telemetry.Snapshot()

	// The open-loop schedule: clerk op k is due at k·interval from the run
	// base, regardless of completions. base is captured by the Clock closure
	// and re-anchored just before Run so config construction time does not
	// count against the first op's latency.
	var base time.Time
	var interval int64
	if opt.Rate > 0 {
		interval = int64(float64(opt.clients()) * float64(time.Second) / opt.Rate)
	}
	s := opt.scenario(kv.ClerkConfig{
		Keys: opt.Keys, PutFrac: opt.PutFrac, Seed: opt.Seed,
		Clock:    func() int64 { return time.Since(base).Nanoseconds() },
		Sleep:    func(ns int64) { time.Sleep(time.Duration(ns)) },
		Deadline: opt.Duration.Nanoseconds(), Interval: interval,
		OpTimeout: opt.ClerkTimeout.Nanoseconds(),
		OnOp:      func(rec kv.OpRecord, due int64) { hist.Observe(rec.End - due) },
	})
	cfg := s.NativeConfig(opt.Seed, opt.Tick)
	cfg.Tracer, cfg.Pin = opt.Tracer, opt.Pin
	rt, err := native.New(cfg)
	if err != nil {
		return nil, err
	}
	base = time.Now()
	res := rt.Run(opt.runBudget())

	rep := &native.StressReport{
		Scenario:  s.Name,
		Workers:   1,
		Runs:      1,
		Decisions: len(res.Decisions),
		Elapsed:   res.Elapsed,
		Crashes:   len(res.Crashed),
		Registers: rt.Registers(),
	}
	rep.Judge(native.CheckDelta(s.Task, res), native.CheckDecided(res))
	// Ops counts completed client operations (the decided sessions plus
	// whatever an undecided run still recorded); res.Ops would count raw
	// register operations, which is the wrong currency for a KV benchmark.
	hs := hist.Snapshot()
	rep.Ops = hs.Count
	rep.Summarize(hs, startCounters)
	for name, v := range kv.Telemetry.Snapshot().Delta(startKV).Map() {
		rep.Counters[name] = v
	}
	rep.Timeouts = rep.Counters["kv_deadline_expired"]
	return rep, nil
}
