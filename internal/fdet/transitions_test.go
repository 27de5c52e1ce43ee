package fdet

import (
	"reflect"
	"testing"
)

// transitionTimes walks the enumerated transition chain from time 0 up to
// horizon (exclusive) and returns the visited times.
func transitionTimes(t *testing.T, h History, horizon Time) map[Time]bool {
	t.Helper()
	out := map[Time]bool{}
	at := Time(0)
	for {
		next, ok := h.NextTransition(at)
		if !ok {
			return out
		}
		if next <= at {
			t.Fatalf("NextTransition(%d) = %d, not strictly increasing", at, next)
		}
		if next >= horizon {
			return out
		}
		out[next] = true
		at = next
	}
}

// opaque is a detector whose histories are bare HistoryFuncs: the output
// keeps moving at times nothing declares, before and after stabilization.
type opaque struct{}

func (opaque) Name() string { return "opaque" }

func (opaque) History(p Pattern, _ Time, seed int64) History {
	return HistoryFunc(func(i int, t Time) any { return (int(seed) + i + t/3) % p.N })
}

// TestTransitionsNeverMissAChange is the soundness property every enumerator
// must satisfy: whenever any module's advice differs between t and t+1, the
// chain visits t+1. (Conservative extra visits are permitted.)
func TestTransitionsNeverMissAChange(t *testing.T) {
	const n, stabilize, horizon, seed = 4, 20, 60, 7
	crashy := NewPattern(n, map[int]Time{1: 5, 3: 35})
	cases := []struct {
		name string
		det  Detector
		pat  Pattern
	}{
		{"trivial", Trivial{}, FailureFree(n)},
		{"first-alive", FirstAlive{}, crashy},
		{"omega", Omega{}, FailureFree(n)},
		{"omega/crash", Omega{}, crashy},
		{"anti-omega-2", AntiOmegaK{K: 2}, FailureFree(n)},
		{"vector-omega-2", VectorOmegaK{K: 2, GoodPos: 0}, FailureFree(n)},
		{"vector-omega-2/pinned", VectorOmegaK{K: 2, GoodPos: 0, Pinned: true}, FailureFree(n)},
		{"vector-omega-1", VectorOmegaK{K: 1, GoodPos: 0}, FailureFree(n)},
		{"eventually-perfect", EventuallyPerfect{}, crashy},
		{"live-omega", LiveOmega{}, FailureFree(n)},
		{"live-omega/crash", LiveOmega{}, crashy},
		{"history-func", opaque{}, FailureFree(n)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := tc.det.History(tc.pat, stabilize, seed)
			visited := transitionTimes(t, h, horizon)
			for i := 0; i < n; i++ {
				for at := Time(0); at < horizon-1; at++ {
					before, after := h.Query(i, at), h.Query(i, at+1)
					if !reflect.DeepEqual(before, after) && !visited[at+1] {
						t.Fatalf("module %d advice changed %v -> %v at t=%d but chain skips it",
							i, before, after, at+1)
					}
				}
			}
		})
	}
}

// TestOmegaTransitionsEndAtStabilize pins the Ω chain: dense through the
// noise prefix, a final transition at the stabilization time, nothing after.
func TestOmegaTransitionsEndAtStabilize(t *testing.T) {
	const stabilize = 10
	h := Omega{}.History(FailureFree(3), stabilize, 1)
	at := Time(0)
	for want := Time(1); want <= stabilize; want++ {
		next, ok := h.NextTransition(at)
		if !ok || next != want {
			t.Fatalf("NextTransition(%d) = %d,%v, want %d,true", at, next, ok, want)
		}
		at = next
	}
	if next, ok := h.NextTransition(stabilize); ok {
		t.Fatalf("NextTransition(%d) = %d,true after stabilization, want none", stabilize, next)
	}
}

// TestAntiOmegaRotatesForever pins the ¬Ωk chain: the post-stabilization
// window rotation keeps a transition at every tick.
func TestAntiOmegaRotatesForever(t *testing.T) {
	h := AntiOmegaK{K: 2}.History(FailureFree(4), 10, 1)
	for _, at := range []Time{0, 10, 1000} {
		if next, ok := h.NextTransition(at); !ok || next != at+1 {
			t.Fatalf("NextTransition(%d) = %d,%v, want %d,true", at, next, ok, at+1)
		}
	}
	// And the rotation is real: consecutive post-stabilization windows differ.
	a, b := h.Query(0, 20), h.Query(0, 21)
	if reflect.DeepEqual(a, b) {
		t.Fatalf("window did not rotate: %v at both t=20 and t=21", a)
	}
}

// TestEventuallyPerfectTransitionsAreCrashTimes pins the ◇P chain after
// stabilization: exactly the crash times strictly greater than the query
// point, then nothing.
func TestEventuallyPerfectTransitionsAreCrashTimes(t *testing.T) {
	const stabilize = 10
	p := NewPattern(4, map[int]Time{2: 25, 0: 40})
	h := EventuallyPerfect{}.History(p, stabilize, 1)
	if next, ok := h.NextTransition(stabilize); !ok || next != 25 {
		t.Fatalf("NextTransition(%d) = %d,%v, want 25,true", stabilize, next, ok)
	}
	if next, ok := h.NextTransition(25); !ok || next != 40 {
		t.Fatalf("NextTransition(25) = %d,%v, want 40,true", next, ok)
	}
	if next, ok := h.NextTransition(40); ok {
		t.Fatalf("NextTransition(40) = %d,true, want none", next)
	}
	// The suspicion set picks up each crash exactly at its transition.
	if got := h.Query(1, 25); !reflect.DeepEqual(got, []int{2}) {
		t.Fatalf("Query(1,25) = %v, want [2]", got)
	}
	if got := h.Query(1, 40); !reflect.DeepEqual(got, []int{0, 2}) {
		t.Fatalf("Query(1,40) = %v, want [0 2]", got)
	}
}

// TestHistoryFuncEnumeratesEveryTick pins the conservative enumerator of a
// bare HistoryFunc: nothing is known about when its output moves, so every
// tick is named, forever.
func TestHistoryFuncEnumeratesEveryTick(t *testing.T) {
	h := HistoryFunc(func(int, Time) any { return 0 })
	for _, at := range []Time{0, 1, 99, 1 << 40} {
		if next, ok := h.NextTransition(at); !ok || next != at+1 {
			t.Fatalf("NextTransition(%d) = %d,%v, want %d,true", at, next, ok, at+1)
		}
	}
}
