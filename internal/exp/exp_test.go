package exp

import (
	"strings"
	"testing"
)

// TestAllExperimentsReproduce is the reproduction gate: every experiment
// table regenerates with zero failures. It is the test-suite mirror of
// `go run ./cmd/efd-bench`. Under -short the engine runs the reduced grids
// instead of skipping, so even the fast suite exercises every experiment.
func TestAllExperimentsReproduce(t *testing.T) {
	eng := NewEngine(Options{Seed: DefaultSeed, Short: testing.Short()})
	for _, x := range Experiments() {
		x := x
		t.Run(x.ID+"_"+x.Name, func(t *testing.T) {
			t.Parallel()
			tbl := eng.Run(x)
			if tbl.Failures > 0 {
				t.Fatalf("%s: %d failures\n%s", x.ID, tbl.Failures, tbl.Render())
			}
			if len(tbl.Rows) == 0 {
				t.Fatalf("%s: empty table", x.ID)
			}
		})
	}
}

func TestTableRender(t *testing.T) {
	tbl := &Table{
		ID:     "EX",
		Title:  "demo",
		Claim:  "render works",
		Header: []string{"a", "column"},
	}
	tbl.AddRow("1", "x")
	tbl.AddRow("22", "y")
	out := tbl.Render()
	for _, want := range []string{"EX", "demo", "render works", "column", "22", "REPRODUCED"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
	tbl.Failures = 2
	if !strings.Contains(tbl.Render(), "2 FAILURES") {
		t.Fatal("failure count not rendered")
	}
}

// TestTableRenderAlignment pins the column-alignment contract: every column
// is padded to the widest cell (header included), rows narrower or wider
// than the header do not panic, and notes render after the rows.
func TestTableRenderAlignment(t *testing.T) {
	tbl := &Table{
		ID:     "EX",
		Title:  "alignment",
		Claim:  "columns align",
		Header: []string{"a", "column"},
		Notes:  []string{"a note"},
	}
	tbl.AddRow("22", "y")
	tbl.AddRow("1")                 // narrower than the header
	tbl.AddRow("3", "z", "overrun") // wider than the header
	out := tbl.Render()
	lines := strings.Split(out, "\n")
	wants := []string{
		"  a   column",
		"  22  y",
		"  1 ",
		"  3   z       overrun",
	}
	for i, want := range wants {
		got := strings.TrimRight(lines[2+i], " ")
		want = strings.TrimRight(want, " ")
		if got != want {
			t.Fatalf("line %d = %q, want %q\nfull:\n%s", 2+i, got, want, out)
		}
	}
	if !strings.Contains(out, "   note: a note") {
		t.Fatalf("note missing:\n%s", out)
	}
}
