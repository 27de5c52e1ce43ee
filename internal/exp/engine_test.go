package exp

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"wfadvice/internal/fdet"
	"wfadvice/internal/sim"
	"wfadvice/internal/vec"
)

// syntheticExperiment builds an experiment whose cells report their index
// and a value drawn from the trial rng — enough to detect out-of-order
// merges and unstable seeding.
func syntheticExperiment(cells int, delay func(i int) time.Duration) Experiment {
	return Experiment{
		ID:     "SYN",
		Name:   "synthetic",
		Title:  "synthetic engine probe",
		Claim:  "cells merge in generation order with stable per-cell seeds",
		Header: []string{"cell", "seed", "draw"},
		Cells: func(Options) []Cell {
			out := make([]Cell, cells)
			for i := range out {
				i := i
				out[i] = Cell{
					Name: fmt.Sprintf("cell=%d", i),
					Run: func(t *Trial) Outcome {
						if delay != nil {
							time.Sleep(delay(i))
						}
						return Row(false, fmt.Sprint(i), fmt.Sprint(t.Seed), fmt.Sprint(t.Rng.Int63()))
					},
				}
			}
			return out
		},
	}
}

// TestEngineDeterministicAcrossParallelism is the engine's core contract:
// for a fixed seed, rendered tables are byte-identical no matter how many
// workers execute the cells or in which order they complete.
func TestEngineDeterministicAcrossParallelism(t *testing.T) {
	syn := syntheticExperiment(24, func(i int) time.Duration {
		// Later cells finish first under parallelism, stressing the merge.
		return time.Duration(24-i) * time.Millisecond
	})
	base := NewEngine(Options{Seed: 42, Parallelism: 1}).Run(syn).Render()
	for _, workers := range []int{2, 8} {
		got := NewEngine(Options{Seed: 42, Parallelism: workers}).Run(syn).Render()
		if got != base {
			t.Fatalf("parallel=%d rendered differently than parallel=1:\n%s\nvs\n%s", workers, got, base)
		}
	}
	if diff := NewEngine(Options{Seed: 43, Parallelism: 1}).Run(syn).Render(); diff == base {
		t.Fatal("different root seeds produced identical tables; seeding is not threaded through")
	}
}

// TestEngineDeterministicRealExperiments runs seeded real experiments (the
// ones whose trials consume their rng) at two parallelism levels and
// demands byte-identical renders — the acceptance criterion for
// `efd-bench -parallel N -seed S`.
func TestEngineDeterministicRealExperiments(t *testing.T) {
	for _, id := range []string{"E9", "E10"} {
		x, ok := ByID(id)
		if !ok {
			t.Fatalf("%s not registered", id)
		}
		opt := Options{Seed: 7, Short: true}
		opt.Parallelism = 1
		serial := NewEngine(opt).Run(x).Render()
		opt.Parallelism = 8
		parallel := NewEngine(opt).Run(x).Render()
		if serial != parallel {
			t.Fatalf("%s: parallel render differs from serial:\n%s\nvs\n%s", id, parallel, serial)
		}
	}
}

// TestEngineMergesInOrder checks the worker pool merges outcomes back into
// cell-generation order even when completion order is fully inverted.
func TestEngineMergesInOrder(t *testing.T) {
	syn := syntheticExperiment(16, func(i int) time.Duration {
		return time.Duration(16-i) * 2 * time.Millisecond
	})
	tbl := NewEngine(Options{Seed: 1, Parallelism: 8}).Run(syn)
	if len(tbl.Rows) != 16 {
		t.Fatalf("got %d rows, want 16", len(tbl.Rows))
	}
	for i, r := range tbl.Rows {
		if r[0] != fmt.Sprint(i) {
			t.Fatalf("row %d carries cell %s; merge is not order-stable", i, r[0])
		}
	}
}

// TestCellSeedDerivation pins the (root, experiment, cell) → seed map:
// stable for equal triples, distinct across cells and experiments.
func TestCellSeedDerivation(t *testing.T) {
	if cellSeed(1, "E1", 0) != cellSeed(1, "E1", 0) {
		t.Fatal("cell seed is not stable")
	}
	seen := map[int64]string{}
	for _, root := range []int64{0, 1, 99} {
		for _, id := range []string{"E1", "E2", "E10"} {
			for cell := 0; cell < 50; cell++ {
				key := fmt.Sprintf("root=%d/%s/cell=%d", root, id, cell)
				s := cellSeed(root, id, cell)
				if prev, dup := seen[s]; dup {
					t.Fatalf("seed collision between %s and %s", prev, key)
				}
				seen[s] = key
			}
		}
	}
}

// TestEngineTimeout checks that a cell exceeding the per-trial timeout is
// recorded as a failure row instead of hanging the regeneration.
func TestEngineTimeout(t *testing.T) {
	slow := Experiment{
		ID: "SLOW", Name: "slow", Title: "slow", Claim: "never finishes in time",
		Header: []string{"cell", "status"},
		Cells: func(Options) []Cell {
			return []Cell{
				{Name: "fast", Run: func(*Trial) Outcome { return Row(false, "fast", "ok") }},
				{Name: "stuck", Run: func(*Trial) Outcome {
					time.Sleep(2 * time.Second)
					return Row(false, "stuck", "ok")
				}},
			}
		},
	}
	tbl := NewEngine(Options{Seed: 1, Timeout: 50 * time.Millisecond, Parallelism: 2}).Run(slow)
	if tbl.Failures != 1 {
		t.Fatalf("failures = %d, want 1\n%s", tbl.Failures, tbl.Render())
	}
	if len(tbl.Rows) != 2 || !strings.Contains(strings.Join(tbl.Rows[1], " "), "timed out") {
		t.Fatalf("timeout row missing:\n%s", tbl.Render())
	}
	if tbl.Rows[0][1] != "ok" {
		t.Fatalf("fast cell corrupted: %v", tbl.Rows[0])
	}
}

// TestEnginePanicIsolated checks that a panicking cell becomes a failure
// row rather than tearing down the run — whether the cell itself panics or a
// process body of a sim run inside it (the panic comes out of Runtime.Run on
// the cell's goroutine).
func TestEnginePanicIsolated(t *testing.T) {
	bad := Experiment{
		ID: "BAD", Name: "bad", Title: "bad", Claim: "panics are contained",
		Header: []string{"cell", "status"},
		Cells: func(Options) []Cell {
			return []Cell{
				{Name: "boom", Run: func(*Trial) Outcome { panic("kaboom") }},
				{Name: "body", Run: func(*Trial) Outcome {
					rt, err := sim.New(sim.Config{
						NC: 1, Inputs: vec.Of(1), Pattern: fdet.FailureFree(0), MaxSteps: 10,
						CBody: func(int) sim.Body {
							return func(e sim.Ops) {
								e.Write("x", 1)
								panic("body-kaboom")
							}
						},
					})
					if err != nil {
						panic(err)
					}
					rt.Run(&sim.RoundRobin{})
					return Row(false, "body", "ran on")
				}},
				{Name: "fine", Run: func(*Trial) Outcome { return Row(false, "fine", "ok") }},
			}
		},
	}
	tbl := NewEngine(Options{Seed: 1}).Run(bad)
	out := tbl.Render()
	if tbl.Failures != 2 || !strings.Contains(out, "kaboom") || !strings.Contains(out, "FAIL: panic: body-kaboom") || !strings.Contains(out, "ok") {
		t.Fatalf("panics not contained as failure rows:\n%s", out)
	}
}

// TestSelect covers the efd-bench -only/-list selection logic.
func TestSelect(t *testing.T) {
	all, err := Select("")
	if err != nil || len(all) != 17 {
		t.Fatalf("empty selection: %d experiments, err=%v; want 17, nil", len(all), err)
	}
	got, err := Select(" e5 , E7 ")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].ID != "E5" || got[1].ID != "E7" {
		ids := make([]string, len(got))
		for i, x := range got {
			ids[i] = x.ID
		}
		t.Fatalf("selection = %v, want [E5 E7] in canonical order", ids)
	}
	if _, err := Select("E5,E99"); err == nil || !strings.Contains(err.Error(), "E99") {
		t.Fatalf("unknown id not rejected: %v", err)
	}
	if _, ok := ByID("e11"); !ok {
		t.Fatal("ByID is not case-insensitive")
	}
}

// TestShortGridsAreSubsets sanity-checks every experiment: the -short grid
// is non-empty and no larger than the full grid.
func TestShortGridsAreSubsets(t *testing.T) {
	for _, x := range Experiments() {
		full := len(x.Cells(Options{}))
		short := len(x.Cells(Options{Short: true}))
		if short == 0 {
			t.Errorf("%s: empty -short grid", x.ID)
		}
		if short > full {
			t.Errorf("%s: -short grid (%d cells) larger than full grid (%d)", x.ID, short, full)
		}
	}
}

// TestTrialMultScalesSweeps checks the -trials multiplier reaches the sweep
// cells: E10's run counts scale with TrialMult.
func TestTrialMultScalesSweeps(t *testing.T) {
	x, ok := ByID("E10")
	if !ok {
		t.Fatal("E10 not registered")
	}
	one := NewEngine(Options{Seed: 3, Short: true}).Run(x)
	three := NewEngine(Options{Seed: 3, Short: true, TrialMult: 3}).Run(x)
	if one.Failures != 0 || three.Failures != 0 {
		t.Fatalf("sweeps failed: x1=%d x3=%d failures", one.Failures, three.Failures)
	}
	// The "runs" column (index 4) must triple.
	if one.Rows[0][4] == three.Rows[0][4] {
		t.Fatalf("TrialMult did not scale the sweep: %v vs %v", one.Rows[0], three.Rows[0])
	}
}
