package main

import (
	"fmt"
	"time"

	"wfadvice"
)

// This file is the stack phase: the isolated unit cost of one public
// function of each layer, driven alone inside a native runtime whose only
// purpose is to hand the measurement a backend handle. These are the rows of
// the cost stack — register op, collect, bind, paxos instance, log slot,
// runtime lifecycle, park→wake — that the per-op figures of the traced run
// are multiples of.

// unitBudget is the wall time spent on one unit cost; a batch is a fiftieth
// of it, so the median is over about fifty batches.
type unitBudget time.Duration

// cost reports the median, over batches, of the ns one iteration takes. f
// runs n iterations; n is grown until a batch is long enough to time. The
// median over batches sheds the multi-millisecond steals a shared box
// injects into single batches.
func (b unitBudget) cost(f func(n int)) float64 { return b.costPrepared(func(int) {}, f) }

// costPrepared is cost with an untimed prepare step before every batch.
func (b unitBudget) costPrepared(prepare, f func(n int)) float64 {
	timed := func(n int) time.Duration {
		prepare(n)
		t0 := time.Now()
		f(n)
		return time.Since(t0)
	}
	batch := time.Duration(b) / 50
	n := 1
	dt := timed(n)
	for dt < batch && n < 1<<24 {
		n *= 2
		dt = timed(n)
	}
	per := make([]float64, max(5, int(time.Duration(b)/max(dt, time.Microsecond))))
	for i := range per {
		per[i] = float64(timed(n).Nanoseconds()) / float64(n)
	}
	return median(per)
}

// inBody runs f as the single C-process of a throwaway native system (nil
// history, default tick advice) and waits for it; s, if non-nil, is the body
// of one S-process alongside.
func inBody(s wfadvice.Body, f func(e wfadvice.Ops)) error {
	ns := 0
	if s != nil {
		ns = 1
	}
	rt, err := wfadvice.NewNativeRuntime(wfadvice.NativeConfig{
		NC: 1, NS: ns, Inputs: wfadvice.VectorOf(1),
		CBody:   func(int) wfadvice.Body { return func(e wfadvice.Ops) { f(e); e.Decide(1) } },
		SBody:   func(int) wfadvice.Body { return s },
		Pattern: wfadvice.FailureFree(ns),
	})
	if err != nil {
		return err
	}
	if res := rt.Run(time.Minute); res.Reason != wfadvice.NativeReasonAllDecided {
		return fmt.Errorf("stack phase: isolated body ended %v", res.Reason)
	}
	return nil
}

// driveSlot takes slot of log from proposal to decision as its only,
// uncontended proposer.
func driveSlot(log *wfadvice.PaxosLog, slot int) {
	p := log.Proposer(slot)
	p.SetProposal(slot + 1)
	for {
		if _, ok := p.StepOp(true); ok {
			return
		}
	}
}

// instanceRegCalls is the exact number of calls one uncontended paxos
// instance makes on its backend handle, the bind of its key table included.
// It is a count, not a timing: it must repeat exactly.
func instanceRegCalls() (int64, error) {
	tr := newTracer(1, 0)
	tr.base = time.Now()
	err := inBody(nil, func(e wfadvice.Ops) {
		driveSlot(wfadvice.NewPaxosLog(&tracedOps{Ops: e, t: tr, st: tr.procs[0]}, "kv/log", 0, replicas), 0)
	})
	return tr.totals().calls[layerPaxos], err
}

// stackValues adds the isolated unit costs to v, spending budget on each.
func stackValues(v map[string]float64, budget unitBudget) error {
	calls, err := instanceRegCalls()
	if err != nil {
		return err
	}
	v["paxos.instance_reg_calls"] = float64(calls)

	// A throwaway counter keeps key tables distinct across batches, so bind
	// and the paxos rows always touch registers nobody has resolved yet, as
	// every new log slot does.
	fresh := 0
	freshKeys := func(n int) [][]string {
		tables := make([][]string, n)
		for i := range tables {
			fresh++
			tables[i] = []string{
				fmt.Sprintf("u/%d/a", fresh), fmt.Sprintf("u/%d/b", fresh),
				fmt.Sprintf("u/%d/c", fresh), fmt.Sprintf("u/%d/d", fresh),
			}
		}
		return tables
	}
	err = inBody(nil, func(e wfadvice.Ops) {
		regs := e.Bind([]string{"r/0", "r/1", "r/2", "r/3"})
		v["native.reg_op_ns"] = budget.cost(func(n int) {
			for i := 0; i < n; i += 2 {
				regs.WriteInt(0, i)
				regs.ReadInt(0)
			}
		})
		buf := make([]wfadvice.Value, regs.Len())
		v["native.collect4_ns"] = budget.cost(func(n int) {
			for i := 0; i < n; i++ {
				regs.ReadMany(buf)
			}
		})
		// Key formatting happens outside the timed loop: bind4 is table
		// resolution alone, for a slot's worth of keys (3 blocks + 1 decision).
		var tables [][]string
		v["native.bind4_ns"] = budget.costPrepared(func(n int) { tables = freshKeys(n) }, func(n int) {
			for i := 0; i < n; i++ {
				e.Bind(tables[i])
			}
		})

		// One uncontended proposer, first poll to decision, on a fresh slot.
		slot := 0
		bare := wfadvice.NewPaxosLog(e, "u/inst", 0, replicas)
		v["paxos.instance_ns"] = budget.cost(func(n int) {
			for i := 0; i < n; i++ {
				driveSlot(bare, slot)
				bare.Release(slot)
				slot++
			}
		})
		// The replica's whole slot cycle: propose, decide, sweep the decision
		// window (which re-binds every 64 slots), release.
		slot = 0
		next := 0
		full := wfadvice.NewPaxosLog(e, "u/slot", 0, replicas)
		v["paxos.log_slot_ns"] = budget.cost(func(n int) {
			for i := 0; i < n; i++ {
				driveSlot(full, slot)
				next = full.Sweep(next, func(s int, _ wfadvice.Value) bool {
					full.Release(s)
					return true
				})
				slot = next
			}
		})
	})
	if err != nil {
		return err
	}

	// One advice query as a replica loop pays it.
	done := make(chan struct{})
	err = inBody(func(e wfadvice.Ops) {
		v["fdet.query_ns"] = budget.cost(func(n int) {
			for i := 0; i < n; i++ {
				e.QueryFD()
			}
		})
		close(done)
	}, func(wfadvice.Ops) { <-done })
	if err != nil {
		return err
	}

	// New + Run of a 4+4 system whose C-processes decide at once: what every
	// one-shot instance pays before and after its algorithm.
	pat := wfadvice.FailureFree(consensusN)
	inputs := wfadvice.VectorOf(1, 2, 3, 4)
	var lifecycleErr error
	v["native.run_lifecycle_us"] = budget.cost(func(n int) {
		for i := 0; i < n; i++ {
			rt, err := wfadvice.NewNativeRuntime(wfadvice.NativeConfig{
				NC: consensusN, NS: consensusN, Inputs: inputs,
				CBody:   func(int) wfadvice.Body { return func(e wfadvice.Ops) { e.Decide(1) } },
				SBody:   func(int) wfadvice.Body { return func(wfadvice.Ops) {} },
				Pattern: pat, Advice: wfadvice.AdviceEvent,
			})
			if err != nil {
				lifecycleErr = err
				return
			}
			rt.Run(instanceCap)
		}
	}) / 1e3
	if lifecycleErr != nil {
		return lifecycleErr
	}

	// Scenario construction plus one seeded config: the other fixed cost of
	// a one-shot instance.
	var buildErr error
	v["core.scenario_build_us"] = budget.cost(func(n int) {
		for i := 0; i < n; i++ {
			sc, err := consensusScenario()
			if err != nil {
				buildErr = err
				return
			}
			sc.NativeConfig(int64(i), 0)
		}
	}) / 1e3
	if buildErr != nil {
		return buildErr
	}
	v["native.wake_us"], err = wakeCost()
	return err
}

// wakeCost measures the event-mode handoff in µs: a process parked on the
// change epoch is woken by the other's register write, and answers the same
// way. Half a round trip is one park→write→wake.
func wakeCost() (float64, error) {
	const rounds, batch = 2000, 100
	var perRound []float64
	body := func(i int) wfadvice.Body {
		return func(e wfadvice.Ops) {
			regs := e.Bind([]string{"ping", "pong"})
			mine, theirs := i, 1-i
			await := func(want int) {
				for {
					seen := e.Epoch()
					if x, ok := regs.ReadInt(theirs); ok && x >= want {
						return
					}
					e.AwaitEpoch(seen)
				}
			}
			t0 := time.Now()
			for r := 1; r <= rounds; r++ {
				if i == 0 {
					regs.WriteInt(mine, r)
					await(r)
				} else {
					await(r)
					regs.WriteInt(mine, r)
				}
				if i == 0 && r%batch == 0 {
					perRound = append(perRound, float64(time.Since(t0).Nanoseconds())/batch)
					t0 = time.Now()
				}
			}
			e.Decide(1)
		}
	}
	rt, err := wfadvice.NewNativeRuntime(wfadvice.NativeConfig{
		NC: 2, Inputs: wfadvice.VectorOf(1, 2), CBody: body,
		Pattern: wfadvice.FailureFree(0), Advice: wfadvice.AdviceEvent,
	})
	if err != nil {
		return 0, err
	}
	if res := rt.Run(time.Minute); res.Reason != wfadvice.NativeReasonAllDecided {
		return 0, fmt.Errorf("stack phase: wake ping-pong ended %v", res.Reason)
	}
	return median(perRound) / 2 / 1e3, nil
}
