package wfadvice_test

// One benchmark per experiment family (E1–E14): each measures the cost of
// regenerating the corresponding EXPERIMENTS.md table row set on the
// parallel engine, plus micro-benchmarks for the substrates the solvers are
// built on (the step runtime, shared-memory consensus, and the BG
// simulation). Run with
//
//	go test -bench=. -benchmem
//
// Under -short the engine uses the reduced grids (the CI smoke
// configuration). Absolute times are machine-local; what matters for the
// reproduction is that every benchmark's internal validity checks pass (a
// failing claim aborts the benchmark).

import (
	"fmt"
	"testing"
	"time"

	"wfadvice"
	"wfadvice/internal/exp"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	x, ok := exp.ByID(id)
	if !ok {
		b.Fatalf("experiment %s not registered", id)
	}
	eng := exp.NewEngine(exp.Options{Seed: exp.DefaultSeed, Short: testing.Short()})
	for i := 0; i < b.N; i++ {
		tbl := eng.Run(x)
		if tbl.Failures > 0 {
			b.Fatalf("%s: %d failures", id, tbl.Failures)
		}
	}
}

func BenchmarkE1Prop1(b *testing.B)          { benchExperiment(b, "E1") }
func BenchmarkE2SHelpers(b *testing.B)       { benchExperiment(b, "E2") }
func BenchmarkE3Separation(b *testing.B)     { benchExperiment(b, "E3") }
func BenchmarkE4KCodes(b *testing.B)         { benchExperiment(b, "E4") }
func BenchmarkE5SolveKSet(b *testing.B)      { benchExperiment(b, "E5") }
func BenchmarkE6SolveRenaming(b *testing.B)  { benchExperiment(b, "E6") }
func BenchmarkE7Extraction(b *testing.B)     { benchExperiment(b, "E7") }
func BenchmarkE8Puzzle(b *testing.B)         { benchExperiment(b, "E8") }
func BenchmarkE9StrongRenaming(b *testing.B) { benchExperiment(b, "E9") }
func BenchmarkE10RenamingSweep(b *testing.B) { benchExperiment(b, "E10") }
func BenchmarkE11Hierarchy(b *testing.B)     { benchExperiment(b, "E11") }
func BenchmarkE12BG(b *testing.B)            { benchExperiment(b, "E12") }
func BenchmarkE13Explore(b *testing.B)       { benchExperiment(b, "E13") }
func BenchmarkE14KSetSweep(b *testing.B)     { benchExperiment(b, "E14") }

// BenchmarkNativeRegisterOps measures raw native-backend register
// throughput: n C-processes spin-reading and writing their own padded
// atomic cells with no algorithm on top, through a register handle bound
// once per body (the hot-path shape every poll loop in the repo now uses).
// ns/op is the per-goroutine cost of one operation through the bound
// surface (step prologue + direct cell access). The generic variant writes
// and reads any-typed values (so the caller-side interface boxing of large
// ints is included, as in the pre-bind PR 4 numbers it is compared
// against); the typed variant uses WriteInt/ReadInt, the fully unboxed
// zero-allocation path. Every op bumps one counter; BenchmarkObsCounter
// in internal/obs prices that bump alone.
func BenchmarkNativeRegisterOps(b *testing.B) {
	run := func(b *testing.B, n int, body func(r wfadvice.Regs, per int)) {
		inputs := wfadvice.NewVector(n)
		for i := range inputs {
			inputs[i] = i
		}
		per := b.N
		cfg := wfadvice.NativeConfig{
			NC: n, Inputs: inputs,
			CBody: func(i int) wfadvice.Body {
				return func(e wfadvice.Ops) {
					body(e.Bind([]string{fmt.Sprintf("r/%d", i)}), per)
					e.Decide(i)
				}
			},
			Pattern: wfadvice.FailureFree(0),
		}
		rt, err := wfadvice.NewNativeRuntime(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		res := rt.Run(5 * time.Minute)
		if res.Reason != wfadvice.NativeReasonAllDecided {
			b.Fatalf("run ended %v", res.Reason)
		}
	}
	generic := func(r wfadvice.Regs, per int) {
		for s := 0; s < per; s += 2 {
			r.Write(0, s)
			r.Read(0)
		}
	}
	typed := func(r wfadvice.Regs, per int) {
		for s := 0; s < per; s += 2 {
			r.WriteInt(0, s)
			r.ReadInt(0)
		}
	}
	for _, n := range []int{2, 8} {
		b.Run(fmt.Sprintf("procs=%d", n), func(b *testing.B) { run(b, n, generic) })
		b.Run(fmt.Sprintf("procs=%d/typed", n), func(b *testing.B) { run(b, n, typed) })
	}
}

// BenchmarkNativeRegisterOpsKeyed measures the unbound keyed path — the
// Ops.Read/Write shape with a string key per operation — which no body in
// internal/ and no Example runs, only benchmark/'s call decorator. Every
// call resolves its key in the register table (its one mutex, a map hit):
// there is no per-process cell cache in front of it, so this is the price
// of not binding. The processes contend on that mutex, so the cost grows
// with procs; bound handles, which every hot loop uses, take no lock.
func BenchmarkNativeRegisterOpsKeyed(b *testing.B) {
	for _, n := range []int{2, 8} {
		b.Run(fmt.Sprintf("procs=%d", n), func(b *testing.B) {
			inputs := wfadvice.NewVector(n)
			for i := range inputs {
				inputs[i] = i
			}
			per := b.N
			cfg := wfadvice.NativeConfig{
				NC: n, Inputs: inputs,
				CBody: func(i int) wfadvice.Body {
					return func(e wfadvice.Ops) {
						key := fmt.Sprintf("r/%d", i)
						for s := 0; s < per; s += 2 {
							e.Write(key, s)
							e.Read(key)
						}
						e.Decide(i)
					}
				},
				Pattern: wfadvice.FailureFree(0),
			}
			rt, err := wfadvice.NewNativeRuntime(cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			res := rt.Run(5 * time.Minute)
			if res.Reason != wfadvice.NativeReasonAllDecided {
				b.Fatalf("run ended %v", res.Reason)
			}
		})
	}
}

// BenchmarkNativeCollect measures the batched-collect fast path: n
// C-processes each running a write + full-table collect loop over one
// register table bound once, with a reused collect buffer — the
// auto.RunOnEnv access pattern. ns/op is the per-goroutine cost of one full
// write+collect round (one prologue plus n atomic loads on the resolved
// cells, no allocation).
func BenchmarkNativeCollect(b *testing.B) {
	for _, n := range []int{2, 8} {
		b.Run(fmt.Sprintf("procs=%d", n), func(b *testing.B) {
			inputs := wfadvice.NewVector(n)
			for i := range inputs {
				inputs[i] = i
			}
			per := b.N
			cfg := wfadvice.NativeConfig{
				NC: n, Inputs: inputs,
				CBody: func(i int) wfadvice.Body {
					return func(e wfadvice.Ops) {
						keys := make([]string, n)
						for j := range keys {
							keys[j] = fmt.Sprintf("t/%d", j)
						}
						regs := e.Bind(keys)
						buf := make([]wfadvice.Value, n)
						for s := 0; s < per; s++ {
							regs.Write(i, s)
							regs.ReadMany(buf)
						}
						e.Decide(i)
					}
				},
				Pattern: wfadvice.FailureFree(0),
			}
			rt, err := wfadvice.NewNativeRuntime(cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			res := rt.Run(5 * time.Minute)
			if res.Reason != wfadvice.NativeReasonAllDecided {
				b.Fatalf("run ended %v", res.Reason)
			}
		})
	}
}

// BenchmarkNativeConsensusStress measures the full native stress pipeline —
// instance setup, goroutine spawn, live advice, decisions, post-hoc checks —
// on the direct Ω consensus solver. Reported ns/op is per instance.
func BenchmarkNativeConsensusStress(b *testing.B) {
	sc, err := wfadvice.NewScenario(wfadvice.ScenarioParams{Task: "consensus", N: 4, Stabilize: 10})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		rt, err := wfadvice.NewNativeRuntime(sc.NativeConfig(int64(i), 0))
		if err != nil {
			b.Fatal(err)
		}
		res := rt.Run(time.Minute)
		if err := wfadvice.NativeCheck(sc.Task, res); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAllExperiments measures one full serial regeneration pass with
// the engine's internal parallelism only (the efd-bench configuration).
func BenchmarkAllExperiments(b *testing.B) {
	eng := wfadvice.NewExpEngine(wfadvice.ExpOptions{Seed: exp.DefaultSeed, Short: testing.Short()})
	for i := 0; i < b.N; i++ {
		for _, tbl := range eng.RunAll(wfadvice.Experiments()) {
			if tbl.Failures > 0 {
				b.Fatalf("%s: %d failures", tbl.ID, tbl.Failures)
			}
		}
	}
}

// BenchmarkRuntimeStep measures the raw cost of one scheduled shared-memory
// step in the lockstep runtime.
func BenchmarkRuntimeStep(b *testing.B) {
	for _, n := range []int{2, 8} {
		b.Run(fmt.Sprintf("procs=%d", n), func(b *testing.B) {
			inputs := wfadvice.NewVector(n)
			for i := range inputs {
				inputs[i] = i
			}
			cfg := wfadvice.Config{
				NC: n, Inputs: inputs,
				CBody: func(i int) wfadvice.Body {
					return func(e wfadvice.Ops) {
						for {
							e.Read("x")
						}
					}
				},
				Pattern:  wfadvice.FailureFree(0),
				MaxSteps: b.N + 1,
			}
			rt, err := wfadvice.NewRuntime(cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			rt.Run(&wfadvice.RoundRobin{})
		})
	}
}

// BenchmarkConsensusDecide measures a full consensus decision (direct Ω
// solver) as a function of system size.
func BenchmarkConsensusDecide(b *testing.B) {
	for _, n := range []int{3, 5, 8} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				pattern := wfadvice.FailureFree(n)
				solver := wfadvice.DirectConfig{NC: n, NS: n, K: 1, LeaderVec: wfadvice.OmegaLeader}
				inputs := wfadvice.NewVector(n)
				for j := range inputs {
					inputs[j] = j
				}
				cfg := wfadvice.Config{
					NC: n, NS: n, Inputs: inputs,
					CBody:    solver.DirectCBody,
					SBody:    solver.DirectSBody,
					Pattern:  pattern,
					History:  wfadvice.Omega{}.History(pattern, 100, int64(i)),
					MaxSteps: 1_000_000,
				}
				rt, err := wfadvice.NewRuntime(cfg)
				if err != nil {
					b.Fatal(err)
				}
				res := rt.Run(&wfadvice.StopWhenDecided{Inner: &wfadvice.RoundRobin{}})
				if err := wfadvice.DecidedAll(res); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBGStep measures BG simulation throughput (simulator steps over
// clock codes).
func BenchmarkBGStep(b *testing.B) {
	for _, tc := range []struct{ m, n int }{{2, 4}, {4, 8}} {
		b.Run(fmt.Sprintf("m=%d,n=%d", tc.m, tc.n), func(b *testing.B) {
			sched := make([]int, b.N)
			for i := range sched {
				sched[i] = i % tc.m
			}
			b.ResetTimer()
			if _, _, _, err := wfadvice.RunBG(tc.m, tc.n,
				func(int) wfadvice.Automaton { return benchClock() }, sched); err != nil {
				b.Fatal(err)
			}
		})
	}
}

type clock struct{ ticks int }

func (c *clock) WriteValue() any      { return c.ticks }
func (c *clock) OnView(view []any)    { c.ticks++ }
func (c *clock) Decided() (any, bool) { return nil, false }
func benchClock() wfadvice.Automaton  { return &clock{} }
