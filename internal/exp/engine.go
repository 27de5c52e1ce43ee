package exp

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"time"

	"wfadvice/internal/obs"
)

// Options configures an Engine.
type Options struct {
	// Parallelism is the number of worker goroutines executing trial cells;
	// 0 or negative means GOMAXPROCS. With no Timeout, results are
	// identical for every value.
	Parallelism int
	// Seed is the root seed. Each trial derives its own seed from the
	// (Seed, experiment ID, cell index) triple, so a trial is reproducible
	// in isolation and results are independent of worker count and
	// completion order.
	Seed int64
	// TrialMult multiplies the per-cell repeated-run counts of the sweep
	// experiments (seeded runs in E10, schedule searches in E9/E11);
	// 0 or negative means 1. Raise it for scale sweeps.
	TrialMult int
	// Timeout bounds one cell's wall time; 0 means no bound. A timed-out
	// cell contributes one failure row. The trial goroutine is left to run
	// to completion in the background; every trial is step-bounded, so it
	// terminates. Because wall time varies with load and worker count, a
	// Timeout weakens the cross-parallelism determinism guarantee: which
	// cells time out may differ between runs.
	Timeout time.Duration
	// Short selects the reduced experiment grids used by `go test -short`
	// and CI smoke jobs.
	Short bool
}

func (o Options) workers() int {
	if o.Parallelism > 0 {
		return o.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

func (o Options) mult() int {
	if o.TrialMult > 0 {
		return o.TrialMult
	}
	return 1
}

// Trial is the context handed to one cell execution: its derived seed, a
// private rand.Rand, and the engine options (for grid decisions that depend
// on Short or TrialMult).
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
	// under opt.Short and repeat counts grow with opt.TrialMult).
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
// counters, worker gauges, the latency histogram) is strictly outside the
// Table: rendered output is byte-identical with it enabled or stubbed.
func (e *Engine) Run(x Experiment) *Table {
	cells := x.Cells(e.opt)
	outs := make([]Outcome, len(cells))
	jobs := make(chan int)
	workers := e.opt.workers()
	if workers > len(cells) {
		workers = len(cells)
	}
	if workers < 1 {
		workers = 1
	}
	mh := Telemetry.Handle()
	if mh.Enabled() {
		gCellsTotal.Add(int64(len(cells)))
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Per-worker handle and private latency histogram: bumps land
			// on a stripe this worker effectively owns, and Observe never
			// contends. The histogram folds into the shared one at drain.
			wh := Telemetry.Handle()
			var whist *obs.Histogram
			if wh.Enabled() {
				whist = obs.NewHistogram()
				gWorkersActive.Add(1)
				defer func() {
					cellLatency.Merge(whist)
					gWorkersActive.Add(-1)
				}()
			}
			for i := range jobs {
				if whist == nil {
					outs[i], _ = e.runCell(x, i, cells[i])
					continue
				}
				t0 := time.Now()
				o, timedOut := e.runCell(x, i, cells[i])
				whist.Observe(time.Since(t0).Nanoseconds())
				wh.Inc(cExpCell)
				if timedOut {
					wh.Inc(cExpCellTimeout)
				}
				if o.Failures > 0 {
					wh.Inc(cExpCellFail)
				}
				outs[i] = o
			}
		}()
	}
	for i := range cells {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
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

// runCell executes one cell; timedOut reports that the outcome is the
// Timeout failure row rather than the cell's own result.
func (e *Engine) runCell(x Experiment, i int, c Cell) (o Outcome, timedOut bool) {
	seed := cellSeed(e.opt.Seed, x.ID, i)
	trial := &Trial{
		Experiment: x.ID,
		Cell:       i,
		Name:       c.Name,
		Seed:       seed,
		Rng:        rand.New(rand.NewSource(seed)),
		Opt:        e.opt,
	}
	if e.opt.Timeout <= 0 {
		return safeRun(c, trial), false
	}
	done := make(chan Outcome, 1)
	go func() { done <- safeRun(c, trial) }()
	timer := time.NewTimer(e.opt.Timeout)
	defer timer.Stop()
	select {
	case o := <-done:
		return o, false
	case <-timer.C:
		return Outcome{
			Rows:     [][]string{{c.Name, fmt.Sprintf("FAIL: trial timed out after %v", e.opt.Timeout)}},
			Failures: 1,
		}, true
	}
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
// an error.
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
	var out []Experiment
	for _, x := range all {
		if want[x.ID] {
			out = append(out, x)
		}
	}
	return out, nil
}
