package wfree

import (
	"math/rand"
	"testing"

	"wfadvice/internal/auto"
	"wfadvice/internal/task"
	"wfadvice/internal/vec"
)

// randomSchedule yields a seeded schedule over n slots of the given length.
func randomSchedule(seed int64, n, length int) []int {
	rng := rand.New(rand.NewSource(seed))
	out := make([]int, length)
	for i := range out {
		out[i] = rng.Intn(n)
	}
	return out
}

func outputsOf(sys *auto.System, n int) vec.Vector {
	out := vec.New(n)
	for i := 0; i < n; i++ {
		if d, ok := sys.Decided(i); ok {
			out[i] = d
		}
	}
	return out
}

func TestProp1EveryTaskOneConcurrent(t *testing.T) {
	// Proposition 1: every task in the zoo is 1-concurrently solvable.
	n := 4
	zoo := []task.Sequential{
		task.NewConsensus(n),
		task.NewSetAgreement(n, 2),
		task.NewStrongRenaming(n+1, n), // n participants of n+1 processes
		task.NewWSB(n),
		task.NewIdentity(n),
	}
	for _, tk := range zoo {
		inputs := vec.New(tk.N())
		for i := 0; i < n; i++ {
			inputs[i] = i + 1
		}
		autos := make([]auto.Automaton, tk.N())
		for i := 0; i < n; i++ {
			autos[i] = NewProp1(tk, i, inputs[i])
		}
		sys := auto.NewSystem(autos)
		if err := sys.RunKConcurrent(1, 10_000); err != nil {
			t.Fatalf("%s: %v", tk.Name(), err)
		}
		out := outputsOf(sys, tk.N())
		if err := tk.Validate(inputs, out); err != nil {
			t.Fatalf("%s: %v (out=%v)", tk.Name(), err, out)
		}
		for i := 0; i < n; i++ {
			if out[i] == nil {
				t.Fatalf("%s: p%d undecided", tk.Name(), i+1)
			}
		}
	}
}

func TestProp1AllParticipationOrders(t *testing.T) {
	// 1-concurrent runs in every admission order of 3 participants.
	tk := task.NewStrongRenaming(4, 3)
	perms := [][]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}
	for _, perm := range perms {
		inputs := vec.New(4)
		autos := make([]auto.Automaton, 4)
		for _, i := range perm {
			inputs[i] = i + 1
			autos[i] = NewProp1(tk, i, inputs[i])
		}
		sys := auto.NewSystem(autos)
		// Run each participant to completion in admission order: the
		// strictest 1-concurrent schedule.
		for _, i := range perm {
			for step := 0; step < 100; step++ {
				if !sys.Step(i) {
					break
				}
			}
			if _, ok := sys.Decided(i); !ok {
				t.Fatalf("perm %v: p%d undecided solo", perm, i+1)
			}
		}
		if err := tk.Validate(inputs, outputsOf(sys, 4)); err != nil {
			t.Fatalf("perm %v: %v", perm, err)
		}
	}
}

func TestKSetKConcurrentSeeds(t *testing.T) {
	// k-set agreement holds in every k-concurrent run (seeded interleavings).
	for _, k := range []int{1, 2, 3} {
		for seed := int64(0); seed < 40; seed++ {
			n := 6
			inputs := vec.New(n)
			autos := make([]auto.Automaton, n)
			for i := 0; i < n; i++ {
				inputs[i] = 100 + i
				autos[i] = NewKSet(i, inputs[i])
			}
			sys := auto.NewSystem(autos)
			if err := sys.RunKConcurrent(k, 50_000); err != nil {
				t.Fatalf("k=%d seed=%d: %v", k, seed, err)
			}
			out := outputsOf(sys, n)
			if err := task.NewSetAgreement(n, k).Validate(inputs, out); err != nil {
				t.Fatalf("k=%d seed=%d: %v (out=%v)", k, seed, err, out)
			}
			_ = seed // admission order fixed; interleaving varies below
		}
	}
}

func TestKSetRandomInterleavings(t *testing.T) {
	for _, k := range []int{2, 3} {
		for seed := int64(0); seed < 60; seed++ {
			n := 6
			inputs := vec.New(n)
			autos := make([]auto.Automaton, n)
			for i := 0; i < n; i++ {
				inputs[i] = 100 + i
				autos[i] = NewKSet(i, inputs[i])
			}
			sys := auto.NewSystem(autos)
			if err := sys.RunKConcurrentRandom(k, rand.New(rand.NewSource(seed)), 100_000); err != nil {
				t.Fatalf("k=%d seed=%d: %v", k, seed, err)
			}
			out := outputsOf(sys, n)
			if err := task.NewSetAgreement(n, k).Validate(inputs, out); err != nil {
				t.Fatalf("k=%d seed=%d: %v (out=%v)", k, seed, err, out)
			}
		}
	}
}

func TestRenamingFig4Bound(t *testing.T) {
	// Theorem 15: in k-concurrent runs with j participants, Figure 4 decides
	// distinct names within {1..j+k−1}.
	for _, j := range []int{2, 3, 4, 5} {
		for k := 1; k <= j; k++ {
			for seed := int64(0); seed < 25; seed++ {
				n := j + 2
				inputs := vec.New(n)
				autos := make([]auto.Automaton, n)
				for i := 0; i < j; i++ {
					inputs[i] = i + 1
					autos[i] = NewRenaming(i)
				}
				sys := auto.NewSystem(autos)
				if err := sys.RunKConcurrentRandom(k, rand.New(rand.NewSource(seed)), 200_000); err != nil {
					t.Fatalf("j=%d k=%d seed=%d: %v", j, k, seed, err)
				}
				out := outputsOf(sys, n)
				if err := task.NewRenaming(n, j, j+k-1).Validate(inputs, out); err != nil {
					t.Fatalf("j=%d k=%d seed=%d: %v (out=%v)", j, k, seed, err, out)
				}
				for i := 0; i < j; i++ {
					if out[i] == nil {
						t.Fatalf("j=%d k=%d seed=%d: p%d undecided", j, k, seed, i+1)
					}
				}
			}
		}
	}
}

func TestRenamingSoloGetsOne(t *testing.T) {
	name, err := SoloName(4, 2, NewRenaming(2), 100)
	if err != nil {
		t.Fatal(err)
	}
	if name != 1 {
		t.Fatalf("solo name = %v, want 1", name)
	}
}

func TestPigeonholeCollision(t *testing.T) {
	// Lemma 11's pigeonhole step: with n ≥ 3 processes running Figure 4
	// solo, two share a solo name.
	a, b, name, err := PigeonholePair(3, func(i int) auto.Automaton { return NewRenaming(i) }, 100)
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatal("collision pair must differ")
	}
	if name != 1 {
		t.Fatalf("Figure 4 solo name = %d, want 1", name)
	}
}

func TestRenConsensusSafety(t *testing.T) {
	// The Lemma 11 reduction: whenever both processes decide, agreement and
	// validity hold (its *termination* is what Lemma 11 refutes).
	for seed := int64(0); seed < 80; seed++ {
		n := 2
		autos := make([]auto.Automaton, n)
		autos[0] = NewRenConsensus(0, 1, "x", NewRenaming(0))
		autos[1] = NewRenConsensus(1, 0, "y", NewRenaming(1))
		sys := auto.NewSystem(autos)
		sys.RunSchedule(randomSchedule(seed, n, 500))
		d0, ok0 := sys.Decided(0)
		d1, ok1 := sys.Decided(1)
		if ok0 {
			if d0 != "x" && d0 != "y" {
				t.Fatalf("seed %d: p1 decided %v", seed, d0)
			}
		}
		if ok0 && ok1 && d0 != d1 {
			t.Fatalf("seed %d: disagreement %v vs %v", seed, d0, d1)
		}
	}
}

func TestFig3KeepsInnerTwoConcurrent(t *testing.T) {
	// Figure 3's guarantee is structural: whatever the schedule, at most two
	// processes are ever inside the wrapped algorithm A concurrently. (With
	// A = Figure 4 this yields (j, j+1)-renaming, the best possible — by
	// Lemma 11 no A can turn this into strong renaming.)
	for _, j := range []int{2, 3, 4} {
		for seed := int64(0); seed < 20; seed++ {
			n := j + 1
			inputs := vec.New(n)
			autos := make([]auto.Automaton, n)
			wrappers := make([]*StrongRenaming, n)
			for i := 0; i < j; i++ {
				inputs[i] = i + 1
				wrappers[i] = NewStrongRenaming(i, j, NewRenaming(i))
				autos[i] = wrappers[i]
			}
			sys := auto.NewSystem(autos)
			rng := rand.New(rand.NewSource(seed))
			for step := 0; step < 200_000 && !sys.AllDecided(); step++ {
				sys.Step(rng.Intn(j))
				active := 0
				for i := 0; i < j; i++ {
					if wrappers[i].InnerActive() {
						active++
					}
				}
				if active > 2 {
					t.Fatalf("j=%d seed=%d: %d processes inside A concurrently", j, seed, active)
				}
			}
			// All processes run: everyone must decide, with names ≤ j+1.
			out := outputsOf(sys, n)
			for i := 0; i < j; i++ {
				if out[i] == nil {
					t.Fatalf("j=%d seed=%d: p%d undecided", j, seed, i+1)
				}
			}
			if err := task.NewRenaming(n, j, j+1).Validate(inputs, out); err != nil {
				t.Fatalf("j=%d seed=%d: %v (out=%v)", j, seed, err, out)
			}
		}
	}
}

func TestStrongRenamingWithOneStalled(t *testing.T) {
	// 1-resilience proper: one of j participants stalls forever after its
	// first step; the remaining j−1 must still decide distinct names.
	j := 4
	n := j + 1
	for stall := 0; stall < j; stall++ {
		inputs := vec.New(n)
		autos := make([]auto.Automaton, n)
		for i := 0; i < j; i++ {
			inputs[i] = i + 1
			autos[i] = NewStrongRenaming(i, j, NewRenaming(i))
		}
		sys := auto.NewSystem(autos)
		sys.Step(stall) // the stalling process registers, then stops
		for step := 0; step < 200_000; step++ {
			done := true
			for i := 0; i < j; i++ {
				if i == stall {
					continue
				}
				if _, ok := sys.Decided(i); !ok {
					done = false
					sys.Step(i)
				}
			}
			if done {
				break
			}
		}
		out := outputsOf(sys, n)
		for i := 0; i < j; i++ {
			if i == stall {
				continue
			}
			if out[i] == nil {
				t.Fatalf("stall=%d: p%d undecided", stall, i+1)
			}
		}
		if err := task.NewRenaming(n, j, j+1).Validate(inputs, out); err != nil {
			t.Fatalf("stall=%d: %v (out=%v)", stall, err, out)
		}
	}
}
