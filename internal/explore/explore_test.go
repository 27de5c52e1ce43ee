package explore_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"wfadvice/internal/explore"
	"wfadvice/internal/fdet"
	"wfadvice/internal/sim"
	"wfadvice/internal/vec"
)

// toySpec is a two-process flag race: each C-process raises its flag, reads
// the other's, and decides 1 ("saw the other") or 0 ("ran alone"). The
// violation predicate fires when both decide 1, which requires both writes
// to precede both reads — a thin interleaving a systematic search must find.
// With withS, two idle S-processes loop over reads forever, padding random
// schedules with noise (the shrinker's job is stripping it).
func toySpec(withS bool) explore.Spec {
	ns := 0
	if withS {
		ns = 2
	}
	return explore.Spec{
		Name: "toy-flag-race",
		Meta: map[string]string{"withS": fmt.Sprint(withS)},
		New: func(maxSteps int) (*sim.Runtime, error) {
			cfg := sim.Config{
				NC: 2, NS: ns,
				Inputs: vec.Of(1, 1),
				CBody: func(i int) sim.Body {
					return func(e sim.Ops) {
						e.Write(fmt.Sprintf("flag/%d", i), 1)
						other := e.Read(fmt.Sprintf("flag/%d", 1-i))
						if other != nil {
							e.Decide(1)
						} else {
							e.Decide(0)
						}
					}
				},
				Pattern:  fdet.FailureFree(ns),
				MaxSteps: maxSteps,
			}
			if withS {
				cfg.SBody = func(int) sim.Body {
					return func(e sim.Ops) {
						for {
							e.Read("noop")
						}
					}
				}
			}
			return sim.New(cfg)
		},
		Check: func(res *sim.Result) error {
			if res.Decisions[0] == 1 && res.Decisions[1] == 1 {
				return fmt.Errorf("both processes decided 1")
			}
			return nil
		},
	}
}

func TestExhaustFindsToyViolation(t *testing.T) {
	rep, err := explore.Explore(toySpec(false), explore.Options{MaxDepth: 8, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Violations == 0 {
		t.Fatalf("no violation found: %s", rep.Render())
	}
	if !rep.Exhausted {
		t.Fatalf("search not exhausted: %s", rep.Render())
	}
	for _, w := range rep.Witness {
		if w.Depth != 6 {
			t.Fatalf("violation at depth %d, want 6 (both triples complete)", w.Depth)
		}
	}
}

// TestUnprunedMatchesIndependentEnumeration cross-checks the explorer's
// NoPrune node count against a from-scratch enumeration of the toy system's
// prefix tree, so "exhaustive" is not self-certified.
func TestUnprunedMatchesIndependentEnumeration(t *testing.T) {
	for _, depth := range []int{3, 6, 8} {
		rep, err := explore.Explore(toySpec(false), explore.Options{MaxDepth: depth, Workers: 2, NoPrune: true})
		if err != nil {
			t.Fatal(err)
		}
		want := enumToy(depth)
		if rep.Runs != want {
			t.Fatalf("depth %d: explorer probed %d nodes, independent enumeration says %d", depth, rep.Runs, want)
		}
		if !rep.Exhausted {
			t.Fatalf("depth %d: not exhausted", depth)
		}
	}
}

// enumToy counts the nodes of the toy system's schedule-prefix tree exactly
// as the explorer walks it: every prefix is one node; violating nodes and
// terminal nodes are not extended; the horizon cuts extension.
func enumToy(maxDepth int) int {
	// Per process: pc 0 = about to write, 1 = about to read, 2 = about to
	// decide, 3 = returned. saw records what the read observed.
	var walk func(pc [2]int, saw [2]bool, dec [2]int, depth int) int
	walk = func(pc [2]int, saw [2]bool, dec [2]int, depth int) int {
		n := 1
		if dec[0] == 1 && dec[1] == 1 {
			return n // violating node: not extended
		}
		if depth == maxDepth {
			return n
		}
		for p := 0; p < 2; p++ {
			if pc[p] == 3 {
				continue
			}
			npc, nsaw, ndec := pc, saw, dec
			switch pc[p] {
			case 0: // write own flag
			case 1: // read the other flag
				nsaw[p] = pc[1-p] >= 1 // other already wrote
			case 2: // decide
				if saw[p] {
					ndec[p] = 1
				} else {
					ndec[p] = 2 // "decided 0" (distinct from undecided)
				}
			}
			npc[p]++
			n += walk(npc, nsaw, ndec, depth+1)
		}
		return n
	}
	return walk([2]int{}, [2]bool{}, [2]int{}, 0)
}

func TestPruningSoundAndSmaller(t *testing.T) {
	raw, err := explore.Explore(toySpec(false), explore.Options{MaxDepth: 8, Workers: 1, NoPrune: true})
	if err != nil {
		t.Fatal(err)
	}
	red, err := explore.Explore(toySpec(false), explore.Options{MaxDepth: 8, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if red.Violations == 0 {
		t.Fatalf("reduced search lost the violation: %s", red.Render())
	}
	if red.Runs >= raw.Runs {
		t.Fatalf("reduction did not shrink the tree: reduced %d runs vs raw %d", red.Runs, raw.Runs)
	}
}

func TestReportByteIdenticalAcrossWorkers(t *testing.T) {
	for _, opt := range []explore.Options{
		{MaxDepth: 8},
		{MaxDepth: 8, NoPrune: true},
		{MaxDepth: 10, Mode: explore.ModeFirst},
	} {
		opt1, opt8 := opt, opt
		opt1.Workers, opt8.Workers = 1, 8
		r1, err := explore.Explore(toySpec(false), opt1)
		if err != nil {
			t.Fatal(err)
		}
		r8, err := explore.Explore(toySpec(false), opt8)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(r1, r8) {
			t.Fatalf("reports differ across workers (mode=%v):\n-- workers=1:\n%s\n-- workers=8:\n%s", opt.Mode, r1.Render(), r8.Render())
		}
		if r1.Render() != r8.Render() {
			t.Fatalf("rendered reports differ across workers")
		}
	}
}

func TestModeFirstFindsMinimalDepth(t *testing.T) {
	rep, err := explore.Explore(toySpec(false), explore.Options{MaxDepth: 10, Workers: 1, Mode: explore.ModeFirst})
	if err != nil {
		t.Fatal(err)
	}
	if rep.FoundDepth != 6 {
		t.Fatalf("FoundDepth = %d, want 6: %s", rep.FoundDepth, rep.Render())
	}
	if len(rep.Witness) == 0 || rep.Witness[0].Depth != 6 {
		t.Fatalf("want a depth-6 witness: %s", rep.Render())
	}
}

func TestBudgetCutsExhausted(t *testing.T) {
	rep, err := explore.Explore(toySpec(false), explore.Options{MaxDepth: 8, Workers: 1, MaxRuns: 10, NoPrune: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Exhausted {
		t.Fatalf("10-run budget cannot exhaust the tree: %s", rep.Render())
	}
}

func TestTraceRoundTripAndReplay(t *testing.T) {
	spec := toySpec(false)
	rep, err := explore.Explore(spec, explore.Options{MaxDepth: 8, Workers: 1, Mode: explore.ModeFirst})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Witness) == 0 {
		t.Fatal("no witness")
	}
	w := rep.Witness[0]
	tr := &explore.Trace{Spec: spec.Name, Meta: spec.Meta, Verdict: w.Err, Steps: w.Steps}
	text := tr.Format()
	back, err := explore.ParseTrace(text)
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, text)
	}
	if !reflect.DeepEqual(tr, back) {
		t.Fatalf("round trip mismatch:\n%#v\n%#v", tr, back)
	}
	out, err := explore.ReplayTrace(spec, back)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Match {
		t.Fatalf("replay diverged: %s", out.Divergence)
	}
	if out.Verdict != w.Err {
		t.Fatalf("replay verdict %q, want %q", out.Verdict, w.Err)
	}
}

func TestReplayDetectsTampering(t *testing.T) {
	spec := toySpec(false)
	rep, err := explore.Explore(spec, explore.Options{MaxDepth: 8, Workers: 1, Mode: explore.ModeFirst})
	if err != nil {
		t.Fatal(err)
	}
	w := rep.Witness[0]
	tr := &explore.Trace{Spec: spec.Name, Verdict: w.Err, Steps: append([]explore.TraceStep(nil), w.Steps...)}
	tr.Steps = tr.Steps[:len(tr.Steps)-1] // drop the final decide
	out, err := explore.ReplayTrace(spec, tr)
	if err != nil {
		t.Fatal(err)
	}
	if out.Match {
		t.Fatal("truncated trace replayed as a match")
	}
}

func TestParseTraceRejectsGarbage(t *testing.T) {
	for _, bad := range []string{
		"",
		"efd-trace v2\nend\n",
		"efd-trace v1\nsteps 2\n0 p1 write k 1\nend\n",
		"efd-trace v1\n0 x9 write k 1\nend\n",
		"efd-trace v1\n0 p1 explode k 1\nend\n",
		"efd-trace v1\nsteps 0\n",
	} {
		if _, err := explore.ParseTrace(bad); err == nil {
			t.Fatalf("ParseTrace accepted %q", bad)
		}
	}
}

// TestShrinkStripsNoise pads the toy race with two idle S-processes, finds a
// violating run under a seeded random scheduler, and checks the shrinker
// reduces it to a locally minimal core.
func TestShrinkStripsNoise(t *testing.T) {
	spec := toySpec(true)
	ro := explore.Sweep(explore.Uniform(spec), 60, 1, 199, 0)
	if ro.Trace == nil {
		t.Fatal("no violating random run in 199 seeds")
	}
	sr, err := explore.Shrink(spec, ro.Trace.Schedule())
	if err != nil {
		t.Fatal(err)
	}
	if sr.OriginalSteps != ro.Steps {
		t.Fatalf("original steps %d, recorded %d", sr.OriginalSteps, ro.Steps)
	}
	// The minimal core is the 6-step two-process race; everything else
	// (S-process noise, the post-violation tail) must go.
	if sr.ShrunkSteps != 6 {
		t.Fatalf("shrunk to %d steps, want the minimal 6: %v", sr.ShrunkSteps, sr.Shrunk)
	}
	if sr.Ratio() > 0.25 {
		t.Fatalf("shrink ratio %.2f > 0.25 (%d -> %d)", sr.Ratio(), sr.OriginalSteps, sr.ShrunkSteps)
	}
	if sr.Trace == nil || sr.Trace.Verdict == explore.VerdictOK {
		t.Fatal("shrunk trace lost the violation")
	}
}

// TestDedupCollapsesConvergentStates drives a system whose two processes
// write the same value to the same key — dependent operations (no sleep-set
// help) that nevertheless converge to one state, which only the visited-
// state hash can collapse.
func TestDedupCollapsesConvergentStates(t *testing.T) {
	spec := explore.Spec{
		Name: "same-write",
		New: func(maxSteps int) (*sim.Runtime, error) {
			return sim.New(sim.Config{
				NC: 2, NS: 0,
				Inputs: vec.Of(1, 1),
				CBody: func(i int) sim.Body {
					return func(e sim.Ops) {
						e.Write("k", 1)
						e.Write("k", 1)
						e.Decide(e.Read("k"))
					}
				},
				Pattern:  fdet.FailureFree(0),
				MaxSteps: maxSteps,
			})
		},
		Check: func(*sim.Result) error { return nil },
	}
	red, err := explore.Explore(spec, explore.Options{MaxDepth: 8, Workers: 1, SplitDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	if red.DedupHits == 0 {
		t.Fatalf("expected state-hash dedup hits: %s", red.Render())
	}
	raw, err := explore.Explore(spec, explore.Options{MaxDepth: 8, Workers: 1, NoPrune: true})
	if err != nil {
		t.Fatal(err)
	}
	if red.Runs >= raw.Runs {
		t.Fatalf("dedup did not shrink the tree: %d vs %d", red.Runs, raw.Runs)
	}
}

func TestRenderMentionsSchedule(t *testing.T) {
	rep, err := explore.Explore(toySpec(false), explore.Options{MaxDepth: 8, Workers: 1, Mode: explore.ModeFirst})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rep.Render(), "schedule: p1 p2") && !strings.Contains(rep.Render(), "schedule: p2 p1") {
		t.Fatalf("render lacks a schedule line:\n%s", rep.Render())
	}
}

// TestExploreTelemetryDeterminism is the determinism guard: the rendered
// report must be byte-identical at one worker and at eight while the
// explorer and the sim runtime under it record — live counters, gauges and
// the node-depth histogram sit strictly outside Report.
func TestExploreTelemetryDeterminism(t *testing.T) {
	run := func(workers int) *explore.Report {
		xs, ss := explore.Telemetry.Snapshot(), sim.Telemetry.Snapshot()
		rep, err := explore.Explore(toySpec(false), explore.Options{MaxDepth: 8, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		x, s := explore.Telemetry.Snapshot().Delta(xs).Map(), sim.Telemetry.Snapshot().Delta(ss).Map()
		if x["explore_node"] == 0 || s["sim_step"] == 0 {
			t.Errorf("workers=%d: telemetry did not move: %v %v", workers, x, s)
		}
		return rep
	}
	base, rep := run(1), run(8)
	if !reflect.DeepEqual(base, rep) {
		t.Error("workers=8: report differs from workers=1")
	}
	if base.Render() != rep.Render() {
		t.Errorf("workers=8: rendered report differs:\n%s\nvs\n%s", rep.Render(), base.Render())
	}
}

// TestExploreTelemetryMatchesStats cross-checks the live counters against
// the deterministic report: for a quiet process, the counter deltas of
// one serial search must equal its Stats exactly.
func TestExploreTelemetryMatchesStats(t *testing.T) {
	before := explore.Telemetry.Snapshot()
	rep, err := explore.Explore(toySpec(false), explore.Options{MaxDepth: 8, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	m := explore.Telemetry.Snapshot().Delta(before).Map()
	if got := m["explore_node"]; got != int64(rep.TotalRuns) {
		t.Errorf("explore_node delta = %d, want report total runs %d", got, rep.TotalRuns)
	}
	for name, want := range map[string]int{
		"explore_terminal":    rep.Terminals,
		"explore_dedup_hit":   rep.DedupHits,
		"explore_sleep_prune": rep.SleepPrunes,
		"explore_violation":   rep.Violations,
		"explore_sweep":       rep.Sweeps,
	} {
		if got := m[name]; got != int64(want) {
			t.Errorf("%s delta = %d, want %d", name, got, want)
		}
	}
}

// TestShrinkTelemetryCountsRuns checks the ddmin progress counters: the
// shrink_run delta must equal the result's candidate-run count.
func TestShrinkTelemetryCountsRuns(t *testing.T) {
	rep, err := explore.Explore(toySpec(true), explore.Options{MaxDepth: 14, Workers: 1, Mode: explore.ModeFirst})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Witness) == 0 {
		t.Fatalf("no witness to shrink:\n%s", rep.Render())
	}
	before := explore.Telemetry.Snapshot()
	sr, err := explore.Shrink(toySpec(true), rep.Witness[0].Schedule)
	if err != nil {
		t.Fatal(err)
	}
	m := explore.Telemetry.Snapshot().Delta(before).Map()
	if got := m["explore_shrink_run"]; got != int64(sr.Runs) {
		t.Errorf("explore_shrink_run delta = %d, want %d candidate runs", got, sr.Runs)
	}
}
