package fdet

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPatternBasics(t *testing.T) {
	p := NewPattern(4, map[int]Time{1: 10, 3: 0})
	if !p.Crashed(3, 0) || p.Crashed(1, 9) || !p.Crashed(1, 10) {
		t.Fatal("Crashed timing wrong")
	}
	if got := p.Correct(); len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("Correct = %v", got)
	}
	if p.MinCorrect() != 0 {
		t.Fatalf("MinCorrect = %d", p.MinCorrect())
	}
	if !p.Faulty(1) || p.Faulty(0) {
		t.Fatal("Faulty wrong")
	}
}

func TestEnvT(t *testing.T) {
	e := EnvT{T: 2}
	if !e.Allows(NewPattern(4, map[int]Time{0: 1, 1: 2})) {
		t.Fatal("2 crashes should be allowed in E_2")
	}
	if e.Allows(NewPattern(4, map[int]Time{0: 1, 1: 2, 2: 3})) {
		t.Fatal("3 crashes should not be allowed in E_2")
	}
	for _, p := range e.Sample(4, 1000) {
		if !e.Allows(p) {
			t.Fatalf("sample %v outside environment", p)
		}
	}
}

func TestOmegaHistoryProperty(t *testing.T) {
	p := NewPattern(4, map[int]Time{0: 5})
	h := Omega{}.History(p, 100, 7)
	outputs := map[int]map[Time]any{}
	for _, q := range p.Correct() {
		outputs[q] = map[Time]any{}
		for tm := 100; tm < 200; tm++ {
			outputs[q][tm] = h.Query(q, tm)
		}
	}
	if err := CheckOmega(p, outputs, 100, 200); err != nil {
		t.Fatal(err)
	}
	// The stable leader must be correct: q1 crashed, so leader is q2.
	if h.Query(1, 150) != 1 {
		t.Fatalf("leader = %v, want q2 (index 1)", h.Query(1, 150))
	}
}

func TestAntiOmegaHistoryProperty(t *testing.T) {
	for _, k := range []int{1, 2, 3} {
		p := FailureFree(5)
		h := AntiOmegaK{K: k}.History(p, 50, 3)
		outputs := map[int]map[Time][]int{}
		for _, q := range p.Correct() {
			outputs[q] = map[Time][]int{}
			for tm := 50; tm < 300; tm++ {
				outputs[q][tm] = h.Query(q, tm).([]int)
			}
		}
		if err := CheckAntiOmegaK(p, k, outputs, 50, 300); err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
	}
}

func TestVectorOmegaHistoryProperty(t *testing.T) {
	for _, pinned := range []bool{false, true} {
		p := NewPattern(5, map[int]Time{2: 0})
		d := VectorOmegaK{K: 3, GoodPos: 1, Pinned: pinned}
		h := d.History(p, 40, 9)
		outputs := map[int]map[Time][]int{}
		for _, q := range p.Correct() {
			outputs[q] = map[Time][]int{}
			for tm := 40; tm < 200; tm++ {
				outputs[q][tm] = h.Query(q, tm).([]int)
			}
		}
		if err := CheckVectorOmegaK(p, 3, outputs, 40, 200); err != nil {
			t.Fatalf("pinned=%v: %v", pinned, err)
		}
		if pinned {
			leaders := d.PinnedLeaders(p)
			got := h.Query(0, 100).([]int)
			for j, want := range leaders {
				if got[j] != want {
					t.Fatalf("pinned position %d = %d, want %d", j, got[j], want)
				}
			}
		}
	}
}

func TestFirstAliveHistory(t *testing.T) {
	if v := (FirstAlive{}).History(FailureFree(2), 0, 1).Query(0, 0); v != 0 {
		t.Fatalf("q1 correct: output %v, want 0", v)
	}
	p := NewPattern(2, map[int]Time{0: 0})
	if v := (FirstAlive{}).History(p, 0, 1).Query(1, 5); v != 1 {
		t.Fatalf("q1 faulty: output %v, want 1", v)
	}
}

func TestHistoriesDeterministic(t *testing.T) {
	f := func(seed int64, q uint8, tm uint16) bool {
		p := FailureFree(4)
		dets := []Detector{Omega{}, AntiOmegaK{K: 2}, VectorOmegaK{K: 2}}
		for _, d := range dets {
			h1 := d.History(p, 100, seed)
			h2 := d.History(p, 100, seed)
			i, tt := int(q)%4, int(tm)
			a, b := h1.Query(i, tt), h2.Query(i, tt)
			if asInts, ok := a.([]int); ok {
				bs := b.([]int)
				if len(asInts) != len(bs) {
					return false
				}
				for x := range asInts {
					if asInts[x] != bs[x] {
						return false
					}
				}
				continue
			}
			if a != b {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestDAGCursorCausality(t *testing.T) {
	p := FailureFree(3)
	h := Omega{}.History(p, 0, 1)
	d := BuildDAG(p, h, RoundRobinSchedule(3, 30))
	if d.Len() != 30 {
		t.Fatalf("Len = %d", d.Len())
	}
	c := d.NewCursor()
	// Consuming q1 then q2 must give q2 a sample after q1's position.
	s1, ok := c.Next(0)
	if !ok {
		t.Fatal("no sample for q1")
	}
	s2, ok := c.Next(1)
	if !ok {
		t.Fatal("no sample for q2")
	}
	if s2.At < s1.At {
		t.Fatalf("causality violated: %d < %d", s2.At, s1.At)
	}
	// Clone forks independently.
	cl := c.Clone()
	a, _ := c.Next(2)
	b, _ := cl.Next(2)
	if a != b {
		t.Fatalf("clone diverged: %v vs %v", a, b)
	}
}

func TestDAGSkipsCrashed(t *testing.T) {
	p := NewPattern(2, map[int]Time{1: 5})
	h := Omega{}.History(p, 0, 1)
	d := BuildDAG(p, h, RoundRobinSchedule(2, 20))
	// q2 is scheduled at odd steps 1, 3, 5, ... and crashes at time 5, so
	// only the queries at steps 1 and 3 enter the DAG.
	if d.SamplesOf(1) != 2 {
		t.Fatalf("SamplesOf(q2) = %d, want 2", d.SamplesOf(1))
	}
}

func TestQuickCursorMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := FailureFree(3)
		d := BuildDAG(p, Omega{}.History(p, 0, seed), RoundRobinSchedule(3, 60))
		c := d.NewCursor()
		last := -1
		for i := 0; i < 40; i++ {
			s, ok := c.Next(rng.Intn(3))
			if !ok {
				continue
			}
			if s.At < last {
				return false
			}
			last = s.At
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
