package fdet

import (
	"reflect"
	"testing"
)

// chaosGrid is every hostile mode, for table tests.
var chaosGrid = []AdviceChaos{
	{Mode: ChaosFlap, Window: 4},
	{Mode: ChaosLie, Window: 4, Seed: 3},
	{Mode: ChaosDiverge, Window: 4},
}

// TestChaosTransitionsNeverMissAChange extends the enumerator soundness walk
// to chaos-wrapped histories: whenever any module's advice differs between t
// and t+1 — inside the hostile prefix, at the handover, or in the inner
// suffix — the chain must visit t+1.
func TestChaosTransitionsNeverMissAChange(t *testing.T) {
	const n, stabilize, horizon, seed = 4, 20, 60, 7
	crashy := NewPattern(n, map[int]Time{1: 5, 3: 35})
	inners := []struct {
		name string
		det  Detector
		pat  Pattern
	}{
		{"omega", Omega{}, FailureFree(n)},
		{"live-omega/crash", LiveOmega{}, crashy},
		{"anti-omega-2", AntiOmegaK{K: 2}, FailureFree(n)},
		{"vector-omega-2", VectorOmegaK{K: 2, GoodPos: 0}, FailureFree(n)},
		{"eventually-perfect", EventuallyPerfect{}, crashy},
		{"trivial", Trivial{}, FailureFree(n)},
		{"history-func", opaque{}, FailureFree(n)},
	}
	for _, in := range inners {
		for _, c := range chaosGrid {
			c := c
			det := WithChaos(in.det, c)
			t.Run(in.name+"+"+c.Suffix(), func(t *testing.T) {
				h := det.History(in.pat, stabilize, seed)
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
}

// TestChaosLegality is the legality argument made executable: a
// chaos-wrapped history must pass its inner family's Check* audit under
// every mode, because the audits constrain only the post-stabilization
// suffix and the wrapper defers to the inner history there.
func TestChaosLegality(t *testing.T) {
	const n, stabilize, horizon, seed = 4, 16, 48, 11
	pat := NewPattern(n, map[int]Time{3: 6})
	for _, c := range chaosGrid {
		c := c
		t.Run(c.Suffix(), func(t *testing.T) {
			record := func(h History) map[int]map[Time]any {
				out := map[int]map[Time]any{}
				for _, i := range pat.Correct() {
					out[i] = map[Time]any{}
					for at := Time(0); at < horizon; at++ {
						out[i][at] = h.Query(i, at)
					}
				}
				return out
			}
			toSets := func(outs map[int]map[Time]any) map[int]map[Time][]int {
				sets := map[int]map[Time][]int{}
				for i, byT := range outs {
					sets[i] = map[Time][]int{}
					for at, v := range byT {
						set, ok := v.([]int)
						if !ok {
							t.Fatalf("module %d output %T at %d, want []int", i, v, at)
						}
						sets[i][at] = set
					}
				}
				return sets
			}

			oh := WithChaos(Omega{}, c).History(pat, stabilize, seed)
			if err := CheckOmega(pat, record(oh), stabilize, horizon); err != nil {
				t.Fatalf("chaos-wrapped Omega violates its contract: %v", err)
			}
			ah := WithChaos(AntiOmegaK{K: 2}, c).History(pat, stabilize, seed)
			if err := CheckAntiOmegaK(pat, 2, toSets(record(ah)), stabilize, horizon); err != nil {
				t.Fatalf("chaos-wrapped AntiOmega-2 violates its contract: %v", err)
			}
			vh := WithChaos(VectorOmegaK{K: 2, GoodPos: 0}, c).History(pat, stabilize, seed)
			if err := CheckVectorOmegaK(pat, 2, toSets(record(vh)), stabilize, horizon); err != nil {
				t.Fatalf("chaos-wrapped VectorOmega-2 violates its contract: %v", err)
			}
		})
	}
}

// TestChaosPrefixShapes pins the hostile prefixes themselves: flap rotates
// coherently, diverge disagrees across modules, lie is module-agreed and
// actually wrong (names the faulty process at some window), and every mode
// changes value across a window boundary.
func TestChaosPrefixShapes(t *testing.T) {
	const n, stabilize, seed = 4, 64, 5
	pat := NewPattern(n, map[int]Time{3: 1})
	w := Time(4)

	flap := Flap(Omega{}, w).History(pat, stabilize, seed)
	if a, b := flap.Query(0, 0), flap.Query(2, 0); a != b {
		t.Fatalf("flap modules disagree: %v vs %v", a, b)
	}
	if a, b := flap.Query(0, 0), flap.Query(0, w); a == b {
		t.Fatalf("flap did not rotate across the window boundary: %v", a)
	}

	div := Diverge(Omega{}, w).History(pat, stabilize, seed)
	if a, b := div.Query(0, 0), div.Query(1, 0); a == b {
		t.Fatalf("diverge modules agree: %v", a)
	}

	lie := LieUntil(Omega{}, w, 9).History(pat, stabilize, seed)
	namedFaulty := false
	for at := Time(0); at < stabilize; at++ {
		a, b := lie.Query(0, at), lie.Query(3, at)
		if a != b {
			t.Fatalf("lie modules disagree at t=%d: %v vs %v", at, a, b)
		}
		if a == 3 { // the faulty process
			namedFaulty = true
		}
	}
	if !namedFaulty {
		t.Fatal("lie never advised the faulty process across the whole prefix")
	}

	// Handover: from stabilize on, every mode defers to the inner history.
	for _, c := range chaosGrid {
		h := WithChaos(Omega{}, c).History(pat, stabilize, seed)
		if got := h.Query(1, stabilize); got != pat.MinCorrect() {
			t.Fatalf("%s: post-stabilization output %v, want inner leader %d", c.Suffix(), got, pat.MinCorrect())
		}
	}
}

// TestParseChaos pins the flag grammar.
func TestParseChaos(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want AdviceChaos
	}{
		{"", AdviceChaos{}},
		{"none", AdviceChaos{}},
		{"flap", AdviceChaos{Mode: ChaosFlap}},
		{"flap:8", AdviceChaos{Mode: ChaosFlap, Window: 8}},
		{"lie:4", AdviceChaos{Mode: ChaosLie, Window: 4}},
		{"diverge:16", AdviceChaos{Mode: ChaosDiverge, Window: 16}},
	} {
		got, err := ParseChaos(tc.in)
		if err != nil || got != tc.want {
			t.Fatalf("ParseChaos(%q) = %+v, %v; want %+v", tc.in, got, err, tc.want)
		}
	}
	for _, bad := range []string{"flip", "flap:0", "flap:-2", "flap:x", "lie:"} {
		if _, err := ParseChaos(bad); err == nil {
			t.Fatalf("ParseChaos(%q) accepted", bad)
		}
	}
}

// TestChaosNaming pins the name and suffix shapes scenario keys are built from.
func TestChaosNaming(t *testing.T) {
	c := AdviceChaos{Mode: ChaosFlap}
	if c.Suffix() != "flap:8" {
		t.Fatalf("default-window suffix = %q, want flap:8", c.Suffix())
	}
	d := WithChaos(LiveOmega{}, AdviceChaos{Mode: ChaosLie, Window: 4})
	if d.Name() != "LiveOmega+lie:4" {
		t.Fatalf("wrapped name = %q", d.Name())
	}
	if WithChaos(Omega{}, AdviceChaos{}) != (Omega{}) {
		t.Fatal("disabled chaos did not return the inner detector unchanged")
	}
}

// FuzzParseChaos holds the -chaos flag parser to two properties on arbitrary
// input: it never panics, and whatever it accepts survives the trip through
// the scenario-name suffix — ParseChaos(c.Suffix()) is accepted, names the
// same mode and effective window, and renders the same suffix, so a scenario
// key always parses back to the configuration that produced it.
func FuzzParseChaos(f *testing.F) {
	for _, s := range []string{
		"", "none", "flap", "flap:8", "lie:4", "diverge:16",
		"flip", "flap:0", "flap:-2", "flap:x", "lie:", "flap:8:9", ":4",
		"flap:99999999999999999999", "flap:+3", "FLAP:8", " flap:8", "none:2",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		c, err := ParseChaos(s)
		if err != nil {
			if c != (AdviceChaos{}) {
				t.Fatalf("ParseChaos(%q) failed but returned %+v", s, c)
			}
			return
		}
		back, err := ParseChaos(c.Suffix())
		if err != nil {
			t.Fatalf("ParseChaos(%q) = %+v, but its suffix %q does not parse: %v", s, c, c.Suffix(), err)
		}
		if back.Mode != c.Mode || back.window() != c.window() || back.Suffix() != c.Suffix() {
			t.Fatalf("ParseChaos(%q) = %+v round-trips through %q to %+v", s, c, c.Suffix(), back)
		}
	})
}
