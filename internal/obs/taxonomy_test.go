package obs

import (
	"strings"
	"testing"
)

// TestTaxonomyRejectsBadNames pins the init-time guard that replaces the
// per-layer "names and constants are in sync" tests: a layer keys its
// names by ID constant, so the only ways to get the declaration wrong are
// a constant left without a name (an empty string, or a slice one short
// when it is the last) or one name used twice — and each panics when the
// package-level var is built.
func TestTaxonomyRejectsBadNames(t *testing.T) {
	const (
		cA CounterID = iota
		cB
		cC
		num
	)
	ok := NewTaxonomy(num, []string{cA: "a", cB: "b", cC: "c"})
	ok.Gauge("g")
	for what, declare := range map[string]func(){
		"constant without a name":      func() { NewTaxonomy(num, []string{cA: "a", cC: "c"}) },
		"last constant without a name": func() { NewTaxonomy(num, []string{cA: "a", cB: "b"}) },
		"duplicate counter name":       func() { NewTaxonomy(num, []string{cA: "a", cB: "b", cC: "a"}) },
		"gauge named like a counter":   func() { ok.Gauge("b") },
		"unnamed histogram":            func() { ok.Histogram("") },
		"histogram named like a gauge": func() { ok.Histogram("g") },
	} {
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.HasPrefix(msg, "obs: taxonomy") {
					t.Errorf("%s: recovered %q, want an obs: taxonomy panic", what, msg)
				}
			}()
			declare()
		}()
	}
}
