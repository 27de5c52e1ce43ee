package auto

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSystemStepAndViews(t *testing.T) {
	a, b := NewClock(), NewCounter(3, "done")
	sys := NewSystem([]Automaton{a, b, nil})
	if sys.N() != 3 {
		t.Fatalf("N = %d", sys.N())
	}
	if sys.Step(2) {
		t.Fatal("stepping an empty slot succeeded")
	}
	if !sys.Step(0) || !sys.Step(1) {
		t.Fatal("stepping live slots failed")
	}
	v := sys.View()
	if v[0] != 0 || v[1] != 0 {
		t.Fatalf("first writes should be 0: %v", v)
	}
	for i := 0; i < 3; i++ {
		sys.Step(1)
	}
	if d, ok := sys.Decided(1); !ok || d != "done" {
		t.Fatalf("counter decision = %v/%v", d, ok)
	}
	if sys.Step(1) {
		t.Fatal("decided automaton stepped")
	}
	if sys.StepsOf(0) != 1 {
		t.Fatalf("StepsOf(0) = %d", sys.StepsOf(0))
	}
}

func TestRunKConcurrentAdmission(t *testing.T) {
	// With k = 1 the counters decide strictly in slot order.
	order := make([]int, 0, 3)
	mk := func(i int) Automaton {
		return &hookCounter{Counter: *NewCounter(2, i), onDecide: func() { order = append(order, i) }}
	}
	sys := NewSystem([]Automaton{mk(0), mk(1), mk(2)})
	if err := sys.RunKConcurrent(1, 1000); err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("decision order %v, want [0 1 2]", order)
	}
}

type hookCounter struct {
	Counter
	onDecide func()
	fired    bool
}

func (h *hookCounter) Decided() (Value, bool) {
	v, ok := h.Counter.Decided()
	if ok && !h.fired {
		h.fired = true
		h.onDecide()
	}
	return v, ok
}

// TestQuickViewIsolation: mutations of a delivered view never leak into the
// system's table (views are copies).
func TestQuickViewIsolation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(4)
		autos := make([]Automaton, n)
		for i := range autos {
			autos[i] = &mutator{}
		}
		sys := NewSystem(autos)
		for s := 0; s < 50; s++ {
			sys.Step(rng.Intn(n))
		}
		// Every table entry must still be an int (mutators write ints but
		// scribble garbage into their views).
		for _, v := range sys.View() {
			if v == nil {
				continue
			}
			if _, ok := v.(int); !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

type mutator struct{ n int }

func (m *mutator) WriteValue() Value { return m.n }
func (m *mutator) OnView(view View) {
	for i := range view {
		view[i] = "garbage"
	}
	m.n++
}
func (m *mutator) Decided() (Value, bool) { return nil, false }
