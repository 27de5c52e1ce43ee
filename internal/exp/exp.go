// Package exp is the experiment harness: one Experiment per table E1–E14
// (listed in the README), each regenerating the table that validates one of
// the paper's propositions, theorems or algorithm figures.
//
// Each experiment is decomposed into independent trial cells (one per grid
// point), executed by an Engine worker pool sized to GOMAXPROCS and merged
// back into stable row order, so regeneration is parallel yet byte-for-byte
// deterministic for a given root seed: no table carries a wall-clock cell.
// cmd/efd-bench prints every table; the root bench_test.go benchmarks each
// experiment, and testdata/tables-short-seed1.txt pins the -short set.
package exp

import (
	"fmt"
	"strings"
)

// Table is one regenerated result table.
type Table struct {
	ID     string     `json:"id"`
	Title  string     `json:"title"`
	Claim  string     `json:"claim"` // the paper statement being validated
	Header []string   `json:"header"`
	Rows   [][]string `json:"rows"`
	Notes  []string   `json:"notes,omitempty"`
	// Failures counts rows that violated the claim (0 = reproduced).
	Failures int `json:"failures"`
}

// AddRow appends a row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Render formats the table as aligned text.
func (t *Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s\n", t.ID, t.Title)
	fmt.Fprintf(&b, "   claim: %s\n", t.Claim)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i < len(widths) {
				fmt.Fprintf(&b, "  %-*s", widths[i], c)
			} else {
				fmt.Fprintf(&b, "  %s", c)
			}
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	for _, r := range t.Rows {
		line(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "   note: %s\n", n)
	}
	if t.Failures == 0 {
		b.WriteString("   result: REPRODUCED\n")
	} else {
		fmt.Fprintf(&b, "   result: %d FAILURES\n", t.Failures)
	}
	return b.String()
}

// DefaultSeed is the root seed used when no explicit seed is given; it is
// the seed CI regenerates tables with.
const DefaultSeed = 1
