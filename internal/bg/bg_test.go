package bg

import (
	"math/rand"
	"testing"

	"wfadvice/internal/auto"
	"wfadvice/internal/task"
	"wfadvice/internal/vec"
	"wfadvice/internal/wfree"
)

func roundRobinSchedule(m, length int) []int {
	out := make([]int, length)
	for i := range out {
		out[i] = i % m
	}
	return out
}

func TestAllSimulatorsAllCodesProgress(t *testing.T) {
	const m, n = 3, 5
	sims, _, stats, err := Run(m, n, func(int) auto.Automaton { return auto.NewClock() },
		roundRobinSchedule(m, 6000))
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < n; c++ {
		if stats.StepsOf[c] < 20 {
			t.Errorf("code %d advanced only %d steps", c, stats.StepsOf[c])
		}
	}
	// Replays agree across simulators.
	for c := 0; c < n; c++ {
		for i := 1; i < m; i++ {
			if sims[i].StepsOf(c) == 0 && sims[0].StepsOf(c) > 10 {
				t.Errorf("simulator %d lags hopelessly on code %d", i, c)
			}
		}
	}
}

// stallAfterLevel1 steps simulator sim until it holds a level-1 entry it has
// published, then returns. The simulator is never stepped again: the classic
// BG blocking adversary.
func stallAfterLevel1(t *testing.T, sys *auto.System, sim *Simulator, simIdx, limit int) {
	t.Helper()
	for i := 0; i < limit; i++ {
		sys.Step(simIdx)
		if sim.HoldsLevel1() {
			// Publish it (staging happens in OnView; the entry becomes
			// visible with the *next* write) — one more step publishes.
			sys.Step(simIdx)
			return
		}
	}
	t.Fatalf("simulator %d never reached level 1 in %d steps", simIdx, limit)
}

func TestBlockingBoundsLostCodes(t *testing.T) {
	// k+1 simulators, k of them stalled mid-agreement: at least n−k codes
	// must keep progressing — the heart of the BG guarantee (E12).
	for _, tc := range []struct{ n, k int }{{5, 1}, {6, 2}, {8, 3}} {
		m := tc.k + 1
		stats := NewStats(tc.n)
		sims := make([]*Simulator, m)
		autos := make([]auto.Automaton, m)
		for i := 0; i < m; i++ {
			sims[i] = NewSimulator(i, m, tc.n, func(int) auto.Automaton { return auto.NewClock() }, stats)
			autos[i] = sims[i]
		}
		sys := auto.NewSystem(autos)
		// Stall simulators 0..k-1, each holding a level-1 somewhere.
		for i := 0; i < tc.k; i++ {
			stallAfterLevel1(t, sys, sims[i], i, 100)
		}
		// Run the surviving simulator long.
		for s := 0; s < 20_000; s++ {
			sys.Step(tc.k)
		}
		progressed := 0
		for c := 0; c < tc.n; c++ {
			if stats.StepsOf[c] >= 50 {
				progressed++
			}
		}
		if progressed < tc.n-tc.k {
			t.Errorf("n=%d k=%d: only %d codes progressed, want ≥ %d",
				tc.n, tc.k, progressed, tc.n-tc.k)
		}
		if progressed == tc.n {
			t.Logf("n=%d k=%d: all codes progressed (stalls may have landed on the same agreement)", tc.n, tc.k)
		}
	}
}

func TestBGRenamingClassic(t *testing.T) {
	// BG-simulate j Figure 4 renaming codes with no concurrency gate: the
	// simulated run is j-concurrent, so names land in {1..2j−1} — the
	// classic wait-free (j, 2j−1)-renaming shape.
	for _, j := range []int{2, 3, 4} {
		for seed := int64(0); seed < 10; seed++ {
			m := 3
			rng := rand.New(rand.NewSource(seed))
			sched := make([]int, 60_000)
			for i := range sched {
				sched[i] = rng.Intn(m)
			}
			sims, _, _, err := Run(m, j, func(c int) auto.Automaton { return wfree.NewRenaming(c) }, sched)
			if err != nil {
				t.Fatal(err)
			}
			inputs := vec.New(j + 1)
			out := vec.New(j + 1)
			for c := 0; c < j; c++ {
				inputs[c] = c + 1
				if d, ok := sims[0].CodeDecision(c); ok {
					out[c] = d
				} else {
					t.Fatalf("j=%d seed=%d: code %d undecided", j, seed, c)
				}
			}
			if err := task.NewRenaming(j+1, j, 2*j-1).Validate(inputs, out); err != nil {
				t.Fatalf("j=%d seed=%d: %v (out=%v)", j, seed, err, out)
			}
			// All replays agree on the decisions.
			for i := 1; i < m; i++ {
				for c := 0; c < j; c++ {
					if d, ok := sims[i].CodeDecision(c); ok && d != out[c] {
						t.Fatalf("j=%d seed=%d: simulator %d replayed code %d to %v, not %v",
							j, seed, i, c, d, out[c])
					}
				}
			}
		}
	}
}

func TestBGKSetUngated(t *testing.T) {
	// Without a gate the simulated run of the k-set algorithm is fully
	// concurrent: validate only n-set agreement (validity + distinctness
	// bound n), the correct claim at this concurrency.
	const m, n = 4, 5
	sims, _, _, err := Run(m, n, func(c int) auto.Automaton { return wfree.NewKSet(c, 100+c) },
		roundRobinSchedule(m, 100_000))
	if err != nil {
		t.Fatal(err)
	}
	inputs := vec.New(n)
	out := vec.New(n)
	for c := 0; c < n; c++ {
		inputs[c] = 100 + c
		if d, ok := sims[0].CodeDecision(c); ok {
			out[c] = d
		}
	}
	if err := task.NewSetAgreement(n, n).Validate(inputs, out); err != nil {
		t.Fatal(err)
	}
}

// TestSafeAgreementRule is the raise/resolve rule on its own, as both this
// package's simulators and core's Asim call it: level(j) reads a table built
// from (simulator, level) records in the listed order, 0 for simulators
// with no record.
func TestSafeAgreementRule(t *testing.T) {
	type rec struct{ id, level int }
	for _, tc := range []struct {
		name       string
		m, me      int
		recs       []rec
		wantRaise  int
		wantWinner int // -1: unresolved
	}{
		{"level 1 blocks resolution", 3, 2, []rec{{0, 2}, {1, 1}}, 0, -1},
		{"level 1 above a level 2 blocks too", 3, 1, []rec{{2, 1}, {0, 2}}, 0, -1},
		{"smallest level-2 id wins, recorded last", 4, 0, []rec{{3, 2}, {2, 2}, {1, 2}}, 0, 1},
		{"smallest level-2 id wins, recorded first", 4, 0, []rec{{1, 2}, {3, 2}, {2, 2}}, 0, 1},
		{"absent and level-0 entries neither block nor win", 4, 1, []rec{{0, 0}, {2, 2}}, 0, 2},
		{"no level-2 entry: unresolved", 3, 0, []rec{{0, 0}, {2, 0}}, 2, -1},
		{"no entries: unresolved", 3, 0, nil, 2, -1},
		{"raise ignores the caller's own level 2", 3, 1, []rec{{1, 2}, {0, 0}}, 2, 1},
	} {
		levels := map[int]int{}
		for _, r := range tc.recs {
			levels[r.id] = r.level
		}
		level := func(j int) int { return levels[j] }
		if got := Raise(tc.me, tc.m, level); got != tc.wantRaise {
			t.Errorf("%s: Raise(%d) = %d, want %d", tc.name, tc.me, got, tc.wantRaise)
		}
		w, ok := Resolve(tc.m, level)
		if ok != (tc.wantWinner >= 0) || (ok && w != tc.wantWinner) {
			t.Errorf("%s: Resolve = %d, %v; want winner %d", tc.name, w, ok, tc.wantWinner)
		}
	}
}
