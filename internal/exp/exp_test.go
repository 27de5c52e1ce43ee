package exp

import (
	"os"
	"strings"
	"testing"
)

// goldenTables is the -seed 1 -short table set as efd-bench prints it, minus
// the lines that time the run.
const goldenTables = "testdata/tables-short-seed1.txt"

// TestGoldenTables holds every E-table to goldenTables byte for byte: the
// -short set rendered at one worker, and outside -short again at eight
// workers, since counters, gauges and the latency histogram sit strictly
// outside Table and the merge is in cell order. Every table must also reproduce (no failure row, at least one
// row). The full grids have their own golden file,
// testdata/tables-full-seed1.txt, which CI's full job diffs against
// efd-bench -seed 1. A deliberate table change is a diff of both golden
// files; regenerate them from the repository root with
//
//	go run ./cmd/efd-bench -seed 1 -short | grep -v -e elapsed -e '^efd-bench:' > internal/exp/testdata/tables-short-seed1.txt
//	go run ./cmd/efd-bench -seed 1 | grep -v -e '^   elapsed:' -e '^efd-bench: ' > internal/exp/testdata/tables-full-seed1.txt
func TestGoldenTables(t *testing.T) {
	raw, err := os.ReadFile(goldenTables)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(string(raw), "\n")
	render := func(workers int) string {
		var b strings.Builder
		for _, tbl := range NewEngine(Options{Seed: DefaultSeed, Short: true, Parallelism: workers}).RunAll(Experiments()) {
			if tbl.Failures > 0 || len(tbl.Rows) == 0 {
				t.Errorf("%s: %d failures, %d rows\n%s", tbl.ID, tbl.Failures, len(tbl.Rows), tbl.Render())
			}
			b.WriteString(tbl.Render())
			b.WriteString("\n")
		}
		return b.String()
	}
	workers := []int{1}
	if !testing.Short() {
		workers = append(workers, 8)
	}
	for _, w := range workers {
		got := strings.Split(render(w), "\n")
		for i := range max(len(got), len(want)) {
			if g, wl := lineAt(got, i), lineAt(want, i); g != wl {
				t.Errorf("workers=%d: %s:%d differs\n got: %q\nwant: %q",
					w, goldenTables, i+1, g, wl)
				break
			}
		}
	}
}

// lineAt is lines[i], or "<EOF>" past the end.
func lineAt(lines []string, i int) string {
	if i < len(lines) {
		return lines[i]
	}
	return "<EOF>"
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
