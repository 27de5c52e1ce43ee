package exp

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"
	"time"

	"wfadvice/internal/par"
)

// Options configures an Engine.
type Options struct {
	// Parallelism is the number of worker goroutines executing trial cells;
	// 0 or negative means GOMAXPROCS. Results are identical for every
	// value.
	Parallelism int
	// Seed is the root seed. Each trial derives its own seed from the
	// (Seed, experiment ID, cell index) triple, so a trial is reproducible
	// in isolation and results are independent of worker count and
	// completion order.
	Seed int64
	// Short selects the reduced experiment grids used by `go test -short`
	// and CI smoke jobs.
	Short bool
}

// Trial is the context handed to one cell execution: its derived seed, a
// private rand.Rand, and the engine options (for grid decisions that depend
// on Short).
type Trial struct {
	Experiment string
	Cell       int
	Name       string
	// Seed is derived from (engine seed, experiment ID, cell index); pass it
	// to detector histories and solver configs so the trial is reproducible
	// standalone.
	Seed int64
	// Rng is seeded with Seed and owned exclusively by this trial.
	Rng *rand.Rand
	Opt Options
}

// Outcome is the result of one cell: the table rows it contributes (in
// order), how many of them violated the experiment's claim, and any notes.
type Outcome struct {
	Rows     [][]string
	Failures int
	Notes    []string
}

// Row builds a single-row Outcome; fail marks the row as a claim violation.
func Row(fail bool, cells ...string) Outcome {
	o := Outcome{Rows: [][]string{cells}}
	if fail {
		o.Failures = 1
	}
	return o
}

// Cell is one independent trial job of an experiment.
type Cell struct {
	// Name identifies the cell within its experiment, e.g. "n=5/k=2".
	Name string
	// Run executes the trial. It must not share mutable state with other
	// cells: everything it needs is built inside or comes from the Trial.
	Run func(t *Trial) Outcome
}

// Experiment is one experiment decomposed into independent cells. The
// engine executes the cells on a worker pool and merges their outcomes back
// into generation order, so rendered tables are stable for a given seed
// regardless of parallelism.
type Experiment struct {
	ID     string
	Name   string
	Title  string
	Claim  string
	Header []string
	Notes  []string
	// Cells generates the trial jobs for the given options (grids may shrink
	// under opt.Short).
	Cells func(opt Options) []Cell
}

// Engine executes experiments cell-by-cell on a worker pool.
type Engine struct {
	opt Options
}

// NewEngine returns an engine with the given options.
func NewEngine(opt Options) *Engine { return &Engine{opt: opt} }

// Options returns the engine's options.
func (e *Engine) Options() Options { return e.opt }

// cellSeed derives the per-trial seed from the (root, experiment, cell)
// triple. FNV-1a keeps it stable across runs and platforms.
func cellSeed(root int64, expID string, cell int) int64 {
	h := fnv.New64a()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(root))
	h.Write(buf[:])
	h.Write([]byte(expID))
	binary.LittleEndian.PutUint64(buf[:], uint64(cell))
	h.Write(buf[:])
	return int64(h.Sum64())
}

// Run executes one experiment and merges the cell outcomes into a Table in
// cell-generation order. The telemetry recorded along the way (cell
// counters, the running-cell gauge, the latency histogram) is strictly
// outside the Table: nothing rendered reads it.
func (e *Engine) Run(x Experiment) *Table {
	cells := x.Cells(e.opt)
	outs := make([]Outcome, len(cells))
	mh := Telemetry.Handle()
	gCellsTotal.Add(int64(len(cells)))
	par.Each(len(cells), e.opt.Parallelism, func(i int) {
		gWorkersActive.Add(1)
		t0 := time.Now()
		o := e.runCell(x, i, cells[i])
		cellLatency.Observe(time.Since(t0).Nanoseconds())
		mh.Inc(cExpCell)
		if o.Failures > 0 {
			mh.Inc(cExpCellFail)
		}
		gWorkersActive.Add(-1)
		outs[i] = o
	})
	mh.Inc(cExpExperiment)

	t := &Table{
		ID:     x.ID,
		Title:  x.Title,
		Claim:  x.Claim,
		Header: append([]string(nil), x.Header...),
	}
	for _, o := range outs {
		t.Rows = append(t.Rows, o.Rows...)
		t.Failures += o.Failures
		t.Notes = append(t.Notes, o.Notes...)
	}
	t.Notes = append(t.Notes, x.Notes...)
	return t
}

// RunAll executes every experiment in order.
func (e *Engine) RunAll(xs []Experiment) []*Table {
	out := make([]*Table, len(xs))
	for i, x := range xs {
		out[i] = e.Run(x)
	}
	return out
}

// runCell executes one cell with its derived seed.
func (e *Engine) runCell(x Experiment, i int, c Cell) Outcome {
	seed := cellSeed(e.opt.Seed, x.ID, i)
	trial := &Trial{
		Experiment: x.ID,
		Cell:       i,
		Name:       c.Name,
		Seed:       seed,
		Rng:        rand.New(rand.NewSource(seed)),
		Opt:        e.opt,
	}
	return safeRun(c, trial)
}

// safeRun converts a panicking cell into a failure row instead of tearing
// down the whole regeneration.
func safeRun(c Cell, t *Trial) (o Outcome) {
	defer func() {
		if x := recover(); x != nil {
			o = Outcome{
				Rows:     [][]string{{c.Name, fmt.Sprintf("FAIL: panic: %v", x)}},
				Failures: 1,
			}
		}
	}()
	return c.Run(t)
}

// ByID returns the experiment with the given id (case-insensitive).
func ByID(id string) (Experiment, bool) {
	id = strings.ToUpper(strings.TrimSpace(id))
	for _, x := range Experiments() {
		if x.ID == id {
			return x, true
		}
	}
	return Experiment{}, false
}

// Select resolves a comma-separated id list ("E5,e7") to experiments in
// canonical order; an empty list selects every experiment. Unknown ids are
// an error, and so is a non-empty list that names none (",").
func Select(ids string) ([]Experiment, error) {
	all := Experiments()
	if strings.TrimSpace(ids) == "" {
		return all, nil
	}
	want := map[string]bool{}
	for _, id := range strings.Split(ids, ",") {
		id = strings.ToUpper(strings.TrimSpace(id))
		if id == "" {
			continue
		}
		if _, found := ByID(id); !found {
			known := make([]string, len(all))
			for i, x := range all {
				known[i] = x.ID
			}
			return nil, fmt.Errorf("unknown experiment %q (known: %s)", id, strings.Join(known, ","))
		}
		want[id] = true
	}
	if len(want) == 0 {
		return nil, fmt.Errorf("experiment list %q names no experiment", ids)
	}
	var out []Experiment
	for _, x := range all {
		if want[x.ID] {
			out = append(out, x)
		}
	}
	return out, nil
}
