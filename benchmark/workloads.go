package main

import (
	"fmt"
	"slices"
	"time"

	"wfadvice"
)

// The four workloads. Each has an untraced form that goes through the same
// entry point the CLIs use (NativeKVStress, NativeStress over NewScenario)
// and a traced form assembled from the façade constructors, with every body
// handed the decorator of trace.go.

const (
	replicas     = 3
	clerks       = 4
	openRate     = 30000 // ops/s offered by kv-open-crash: a quarter of closed-loop capacity on the 2-core dev box
	clerkTimeout = time.Second
	tick         = 100 * time.Microsecond // the backend's default advice tick
	stabilize    = 100                    // KVStress's default advice stabilization, in ticks
	consensusN   = 4
	instanceCap  = 5 * time.Second // NativeStress's default budget for one instance
)

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	why  string
	kv   bool // drives internal/kv: the harness's kv counters and op latencies apply
	// run executes one untraced segment of length d on a fresh system and
	// returns the harness's own report, checker verdict included.
	run func(seed int64, d time.Duration) (*wfadvice.StressReport, error)
	// ops extracts the client-visible ops a report completed and attempted.
	ops func(rep *wfadvice.StressReport) (done, attempted int64)
	// traced executes one segment under the decorator.
	traced func(seed int64, d time.Duration) (*tracedSegment, error)
}

var workloads = []*workload{
	kvWorkload("kv-put",
		"closed loop, 100% puts: every op rides harvest, batch, paxos instance, log slot, apply, reply",
		kvSpec{putFrac: 1.0}),
	kvWorkload("kv-get",
		"closed loop, 95% lease reads: the clerk-replica mailbox and the lease check dominate, paxos idles",
		kvSpec{putFrac: 0.05}), // 0 would mean the clerk's default 0.5, so 0.05 is the lowest honest value
	kvWorkload("kv-open-crash",
		"open loop at 30000 ops/s, half puts, leader crashed mid-segment: queueing, failover and catch-up, latency from due time",
		kvSpec{putFrac: 0.5, rate: openRate, crash: true}),
	{
		name: "oneshot-consensus",
		why:  "back-to-back one-shot consensus instances under event advice: runtime lifecycle and park-wake, no kv and no log",
		run: func(seed int64, d time.Duration) (*wfadvice.StressReport, error) {
			sc, err := consensusScenario()
			if err != nil {
				return nil, err
			}
			return wfadvice.NativeStress(sc.Name, sc.Task, func(s int64) (wfadvice.NativeConfig, error) {
				return sc.NativeConfig(s, 0), nil
			}, wfadvice.StressOptions{Duration: d, Workers: 1, Seed: seed})
		},
		// An op is one C-process decision; StressReport.Ops is raw register
		// ops for one-shot runs.
		ops: func(rep *wfadvice.StressReport) (int64, int64) {
			return int64(rep.Decisions), int64(rep.Runs) * consensusN
		},
		traced: tracedConsensus,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func consensusScenario() (*wfadvice.Scenario, error) {
	return wfadvice.NewScenario(wfadvice.ScenarioParams{Task: "consensus", N: consensusN, Stabilize: 10, Advice: "event"})
}

// kvSpec is what distinguishes the three kv workloads.
type kvSpec struct {
	putFrac float64
	rate    float64 // 0 = closed loop
	crash   bool    // crash the advised leader at mid-segment
}

// crashTick is the middle of a segment of length d, in advice ticks.
func crashTick(d time.Duration) int { return int(d / 2 / tick) }

func kvWorkload(name, why string, k kvSpec) *workload {
	return &workload{
		name: name,
		why:  why,
		kv:   true,
		run: func(seed int64, d time.Duration) (*wfadvice.StressReport, error) {
			o := wfadvice.KVStressOptions{
				N: replicas, Clients: clerks, Rate: k.rate, Duration: d,
				PutFrac: k.putFrac, ClerkTimeout: clerkTimeout, Seed: seed,
			}
			if k.crash {
				o.CrashLeader, o.CrashAt = 1, crashTick(d)
			}
			return wfadvice.NativeKVStress(o)
		},
		ops: func(rep *wfadvice.StressReport) (int64, int64) {
			return rep.Ops, rep.Ops + rep.Timeouts
		},
		traced: func(seed int64, d time.Duration) (*tracedSegment, error) { return tracedKV(name, k, seed, d) },
	}
}

// tracedSegment is what one segment under the decorator yields.
type tracedSegment struct {
	ops     int64
	elapsed time.Duration
	err     error // checker verdict
	totals  layerTotals
	// retained is the live heap, after a GC, that the finished system still
	// holds.
	retained uint64
	// kv only: clerk-observed service time, generator lateness, completion
	// stalls and the cost of the session check.
	serviceP50, genLateP99 time.Duration
	stallMs                float64
	checkNs                float64
	tracePath              string
}

// tracedKV is NativeKVStress rebuilt from the façade's constructors — same
// replica and clerk configuration, advice, crash schedule and checks — so
// that the bodies can be wrapped. The decorator-transparency test holds the
// two to the same verdict.
func tracedKV(name string, k kvSpec, seed int64, d time.Duration) (*tracedSegment, error) {
	tr := newTracer(clerks, replicas)
	var interval int64
	if k.rate > 0 {
		interval = int64(float64(clerks) * float64(time.Second) / k.rate)
	}
	rc := wfadvice.KVReplicaConfig{NC: clerks, NS: replicas, LeaseReads: true, Pause: tr.pause}
	cc := wfadvice.KVClerkConfig{
		NC: clerks, NS: replicas, PutFrac: k.putFrac, Seed: seed, Pause: tr.pause,
		Clock:    tr.clock,
		Sleep:    func(ns int64) { time.Sleep(time.Duration(ns)) },
		Deadline: d.Nanoseconds(), Interval: interval,
		OpTimeout: clerkTimeout.Nanoseconds(),
	}
	// LiveOmega advises the lowest live replica once stable, so crashing
	// replica 0 kills the acting leader.
	crashes := map[int]int{}
	if k.crash {
		crashes[0] = crashTick(d)
	}
	pat := wfadvice.NewPattern(replicas, crashes)
	det, err := wfadvice.DetectorByName("live-omega", 0)
	if err != nil {
		return nil, err
	}
	// The kv task over four clerks, for the same ∆ check KVStress applies.
	sc, err := wfadvice.NewScenario(wfadvice.ScenarioParams{Task: "kv", N: clerks})
	if err != nil {
		return nil, err
	}
	inputs := wfadvice.NewVector(clerks)
	for i := range inputs {
		inputs[i] = 100 + i
	}
	// Register pre-sizing as in KVStress: one log slot per committed batch,
	// bounded by the offered load; each slot is one block per replica plus a
	// decision register.
	slots := 1024
	if est := int(k.rate*d.Seconds()) + 64; est > slots {
		slots = min(est, 1<<16)
	}
	cfg := wfadvice.NativeConfig{
		NC: clerks, NS: replicas, Inputs: inputs,
		CBody: tr.wrapC(cc.Body), SBody: tr.wrapS(rc.Body),
		Pattern: pat, History: det.History(pat, stabilize, seed),
		Registers: 2*clerks + slots*(replicas+1),
	}
	before := liveHeap()
	rt, err := wfadvice.NewNativeRuntime(cfg)
	if err != nil {
		return nil, err
	}
	tr.base = time.Now()
	res := rt.Run(d + 10*time.Second)
	seg := &tracedSegment{elapsed: res.Elapsed, totals: tr.totals()}
	seg.retained = retainedSince(before, rt, res)
	seg.err = wfadvice.NativeCheck(sc.Task, res)

	// Everything below reads the clerks' own records: the decided sessions.
	var sessions []*wfadvice.KVSession
	var roots []rootSpan
	var service, late, ends []int64
	for c := 0; c < clerks; c++ {
		s, ok := res.Decisions[c].(*wfadvice.KVSession)
		if !ok {
			continue
		}
		sessions = append(sessions, s)
		for i, op := range s.Ops {
			if op.TimedOut {
				continue
			}
			seg.ops++
			service = append(service, op.End-op.Start)
			ends = append(ends, op.End)
			due := op.Start
			if interval > 0 {
				due = int64(i) * interval
				late = append(late, op.Start-due)
			}
			if i%spanEvery == 0 && i/spanEvery < spanOpsPerPr {
				roots = append(roots, rootSpan{proc: c, op: i + 1, name: "clerk.op",
					start: op.Start, end: op.End, due: due, kind: op.Op.String()})
			}
		}
	}
	t0 := time.Now()
	if err := wfadvice.KVCheckSessions(sessions, len(sessions) == clerks); err != nil && seg.err == nil {
		seg.err = err
	}
	seg.checkNs = float64(time.Since(t0).Nanoseconds())
	for _, xs := range [][]int64{service, late, ends} {
		slices.Sort(xs)
	}
	seg.serviceP50 = time.Duration(quantile(service, 0.50))
	seg.genLateP99 = time.Duration(quantile(late, 0.99))
	for i := 1; i < len(ends); i++ {
		if gap := ends[i] - ends[i-1]; gap > int64(stallGap) {
			seg.stallMs += float64(gap) / 1e6
		}
	}
	seg.tracePath, err = tr.write(name, roots, seg.totals)
	if err != nil {
		return nil, fmt.Errorf("write trace: %w", err)
	}
	return seg, nil
}

// stallGap is the silence between two consecutive completions, anywhere in
// the system, that counts as a stall.
const stallGap = 5 * time.Millisecond

// tracedConsensus runs back-to-back one-shot instances for d, as
// NativeStress does with one worker, with every body wrapped.
func tracedConsensus(seed int64, d time.Duration) (*tracedSegment, error) {
	sc, err := consensusScenario()
	if err != nil {
		return nil, err
	}
	tr := newTracer(sc.NC, sc.NS)
	tr.base = time.Now()
	seg := &tracedSegment{}
	var roots []rootSpan
	var last *wfadvice.NativeRuntime
	before := liveHeap()
	for r := 0; time.Since(tr.base) < d; r++ {
		cfg := sc.NativeConfig(seed*1_000_003+int64(r), 0)
		cfg.CBody, cfg.SBody = tr.wrapC(cfg.CBody), tr.wrapS(cfg.SBody)
		tr.beginInstance(r)
		rt, err := wfadvice.NewNativeRuntime(cfg)
		if err != nil {
			return nil, err
		}
		res := rt.Run(instanceCap)
		if err := wfadvice.NativeCheck(sc.Task, res); err != nil && seg.err == nil {
			seg.err = err
		}
		seg.ops += int64(len(res.Decisions))
		for c := 0; c < sc.NC; c++ {
			if st := tr.procs[c]; st.sampling && res.Decisions[c] != nil {
				roots = append(roots, rootSpan{proc: c, op: r, name: "decision",
					start: st.began, end: st.decided, due: st.began, kind: "decide"})
			}
		}
		last = rt
	}
	seg.elapsed = time.Since(tr.base)
	seg.totals = tr.totals()
	// Instances are dropped as they finish, so what stays live is the last.
	seg.retained = retainedSince(before, last)
	seg.tracePath, err = tr.write("oneshot-consensus", roots, seg.totals)
	if err != nil {
		return nil, fmt.Errorf("write trace: %w", err)
	}
	return seg, nil
}
