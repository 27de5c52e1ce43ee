package native

import (
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"wfadvice/internal/fdet"
	"wfadvice/internal/sim"
	"wfadvice/internal/vec"
)

// realisticKeys generates the register-key population of the scenario zoo:
// input registers in/i, direct-solver consensus instances cons/j/* (one
// block per proposer plus the decision register), and Theorem 9 machine
// cells cell/a/s/* with the same block shape.
func realisticKeys(n, k, steps int) []string {
	var keys []string
	for i := 0; i < n; i++ {
		keys = append(keys, fmt.Sprintf("in/%d", i))
	}
	keys = append(keys, "ovec")
	for j := 0; j < k; j++ {
		for p := 0; p < n; p++ {
			keys = append(keys, fmt.Sprintf("cons/%d/blk/%d", j, p))
		}
		keys = append(keys, fmt.Sprintf("cons/%d/dec", j))
	}
	for a := 0; a < n; a++ {
		for s := 0; s < steps; s++ {
			for p := 0; p < 2*n; p++ {
				keys = append(keys, fmt.Sprintf("cell/%d/%d/blk/%d", a, s, p))
			}
			keys = append(keys, fmt.Sprintf("cell/%d/%d/dec", a, s))
		}
	}
	return keys
}

// TestStoreLookupStable: lookup must mint exactly one cell per key no
// matter how many goroutines race on first touch — two processes reading
// "the same register" through different cells would break atomicity.
func TestStoreLookupStable(t *testing.T) {
	st := newStore(0)
	keys := realisticKeys(8, 4, 3)
	const workers = 8
	cells := make([]map[string]*cell, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			mine := make(map[string]*cell, len(keys))
			for _, k := range keys {
				mine[k] = st.lookup(k)
			}
			cells[w] = mine
		}()
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		for _, k := range keys {
			if cells[w][k] != cells[0][k] {
				t.Fatalf("worker %d resolved %q to a different cell", w, k)
			}
		}
	}
}

// TestStoreConcurrentReadersWriters hammers the table from parallel writers
// and readers over an overlapping key set under -race: the table's mutex
// must serialize map access, and the cells must deliver only values some
// writer actually stored.
func TestStoreConcurrentReadersWriters(t *testing.T) {
	st := newStore(256)
	keys := realisticKeys(8, 2, 2)
	const (
		workers = 8
		rounds  = 500
	)
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				k := keys[(w*rounds+r)%len(keys)]
				c := st.lookup(k)
				if w%2 == 0 {
					c.store(w*rounds+r, &testMetrics)
				} else if v := c.load(); v != nil {
					if _, ok := v.(int); !ok {
						errs <- fmt.Sprintf("read torn value %v from %q", v, k)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestStorePresizeZeroAndLarge: the Registers hint only pre-sizes the
// table's map: no estimate, a handful of keys and an overshooting hint must
// behave identically.
func TestStorePresizeZeroAndLarge(t *testing.T) {
	for _, hint := range []int{0, 1, 9, 1 << 15} {
		st := newStore(hint)
		c := st.lookup("in/0")
		c.store(42, &testMetrics)
		if got := st.lookup("in/0"); got != c {
			t.Fatalf("hint %d: lookup not stable", hint)
		}
		if v := st.lookup("in/0").load(); v == nil || v.(int) != 42 {
			t.Fatalf("hint %d: stored value lost", hint)
		}
	}
}

// TestBindOverlappingTablesShareCells: two processes binding overlapping
// fresh key tables at the same moment must end up on the same cell for
// every key they share — each call mints the cells it finds missing from
// its own backing array, and a key the other process got to first has to
// resolve to that process's cell, not to a second one. Run under -race, with
// the map pre-sized for one register and for thousands.
func TestBindOverlappingTablesShareCells(t *testing.T) {
	for _, registers := range []int{1, 1 << 15} {
		bindOverlappingTables(t, registers)
	}
}

func bindOverlappingTables(t *testing.T, registers int) {
	const rounds, width, overlap = 50, 96, 64
	var bound [2][rounds]*boundRegs
	var start [rounds]sync.WaitGroup
	for r := range start {
		start[r].Add(2)
	}
	cfg := Config{
		NC: 2, Inputs: vec.Of(1, 2),
		CBody: func(i int) sim.Body {
			return func(e sim.Ops) {
				for r := 0; r < rounds; r++ {
					keys := make([]string, width)
					for k := range keys {
						keys[k] = fmt.Sprintf("r/%d/%d", r, i*(width-overlap)+k)
					}
					start[r].Done()
					start[r].Wait()
					bound[i][r] = e.Bind(keys).(*boundRegs)
				}
				e.Decide(0)
			}
		},
		Pattern: fdet.FailureFree(0), Registers: registers,
	}
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res := rt.Run(time.Minute); res.Reason != ReasonAllDecided {
		t.Fatalf("run ended %v", res.Reason)
	}
	for r := 0; r < rounds; r++ {
		a, b := bound[0][r], bound[1][r]
		for k := 0; k < overlap; k++ {
			ka, kb := width-overlap+k, k
			if a.keys[ka] != b.keys[kb] {
				t.Fatalf("round %d: slots %d and %d hold %q and %q", r, ka, kb, a.keys[ka], b.keys[kb])
			}
			if a.cells[ka] != b.cells[kb] {
				t.Fatalf("round %d: %q resolved to two cells", r, a.keys[ka])
			}
		}
		if a.cells[0] == b.cells[width-1] {
			t.Fatalf("round %d: distinct keys share a cell", r)
		}
	}
}

// TestRearmBoundsRetainedTable: keys are the caller's to name, and a config
// factory may name them per instance; a runtime re-armed across such instances
// as a Stress worker re-arms it must not grow with their number. The bound is
// measured: the table is kept while it holds at most twice what its first run
// left in it (at least retainedFloor), whatever Config.Registers says — that
// only pre-sizes the first table — and replaced otherwise, and the handles
// the Envs remembered go with it: a handle that outlived its table would
// write where no keyed read looks.
func TestRearmBoundsRetainedTable(t *testing.T) {
	const hint, perRun = 4, 3
	shared := []string{"a", "b"}
	mk := func(seed int64) Config {
		own := fmt.Sprintf("inst/%d", seed)
		return Config{
			NC: 1, Inputs: vec.Of(1), Pattern: fdet.FailureFree(0), Registers: hint,
			CBody: func(int) sim.Body {
				return func(e sim.Ops) {
					r := e.Bind(shared)
					r.Write(0, 1000+int(seed))
					e.Write(own, 1)
					if got := e.Read(shared[0]); got != 1000+int(seed) {
						t.Errorf("instance %d: keyed read of %q = %v after a bound write of %d", seed, shared[0], got, 1000+int(seed))
					}
					e.Decide(1)
				}
			},
		}
	}
	rt := new(Runtime)
	tables := map[*store]bool{}
	for seed := int64(0); seed < 1000; seed++ {
		if err := rt.Reset(mk(seed)); err != nil {
			t.Fatal(err)
		}
		if res := rt.Run(time.Minute); res.Reason != ReasonAllDecided {
			t.Fatalf("instance %d ended %v", seed, res.Reason)
		}
		if held, limit := rt.store.held(), max(2*perRun, retainedFloor)+perRun; held > limit {
			t.Fatalf("instance %d: the table holds %d registers, want ≤ %d", seed, held, limit)
		}
		tables[rt.store] = true
	}
	if len(tables) < 2 || len(tables) > 1000/(retainedFloor/perRun) {
		t.Errorf("1000 instances of one fresh key each ran on %d tables, want one per %d or so", len(tables), retainedFloor)
	}
}

// TestRearmKeepsAMeasuredTable: a body that binds the same keys every run,
// more of them than retainedFloor and with no Registers estimate, runs every
// instance on the table its first run filled, each register empty again.
func TestRearmKeepsAMeasuredTable(t *testing.T) {
	keys := make([]string, 200)
	for i := range keys {
		keys[i] = fmt.Sprintf("k/%d", i)
	}
	cfg := Config{
		NC: 1, Inputs: vec.Of(1), Pattern: fdet.FailureFree(0),
		CBody: func(int) sim.Body {
			return func(e sim.Ops) {
				r := e.Bind(keys)
				for i := range keys {
					if v := r.Read(i); v != nil {
						t.Errorf("%q reads %v before this run wrote it", keys[i], v)
					}
					r.Write(i, i+1)
				}
				e.Decide(1)
			}
		},
	}
	rt := new(Runtime)
	var first *store
	for run := 0; run <= 50; run++ {
		if err := rt.Reset(cfg); err != nil {
			t.Fatal(err)
		}
		if run == 0 {
			first = rt.store
		} else if rt.store != first {
			t.Fatalf("re-arm %d rebuilt a table of %d registers, the population of every run", run, first.held())
		}
		if res := rt.Run(time.Minute); res.Reason != ReasonAllDecided {
			t.Fatalf("run %d ended %v", run, res.Reason)
		}
	}
}

// TestRearmRebuildsPastTwiceTheFirstRun: a body that binds the same 200 keys
// and writes one fresh key per instance grows its table by one register a
// run. The table never holds more than twice what its first run left in it,
// plus the run since the last check, and a table is rebuilt only once it
// holds more than twice that.
func TestRearmRebuildsPastTwiceTheFirstRun(t *testing.T) {
	const runs = 1000
	keys := make([]string, 200)
	for i := range keys {
		keys[i] = fmt.Sprintf("k/%d", i)
	}
	mk := func(run int) Config {
		own := fmt.Sprintf("inst/%d", run)
		return Config{
			NC: 1, Inputs: vec.Of(1), Pattern: fdet.FailureFree(0),
			CBody: func(int) sim.Body {
				return func(e sim.Ops) {
					e.Bind(keys).Write(0, run)
					e.Write(own, 1)
					e.Decide(1)
				}
			},
		}
	}
	rt := new(Runtime)
	var prev *store
	first, rebuilt := 0, 0
	for run := 0; run < runs; run++ {
		if err := rt.Reset(mk(run)); err != nil {
			t.Fatal(err)
		}
		if prev != nil && rt.store != prev {
			if held := prev.held(); held <= 2*first {
				t.Fatalf("run %d: a table of %d registers was rebuilt, want it kept up to %d", run, held, 2*first)
			}
			rebuilt++
		}
		prev = rt.store
		if res := rt.Run(time.Minute); res.Reason != ReasonAllDecided {
			t.Fatalf("run %d ended %v", run, res.Reason)
		}
		held := rt.store.held()
		if run == 0 {
			first = held
		}
		if held > 2*first+1 {
			t.Fatalf("run %d: the table holds %d registers, want ≤ %d", run, held, 2*first+1)
		}
	}
	if rebuilt == 0 {
		t.Errorf("%d runs of one fresh key each never rebuilt a table of %d registers", runs, first)
	}
}

// bindTable binds a table of n keys named after gen and returns the keys,
// their cells and whether the bind minted from a recycled array.
func bindTable(st *store, gen string, n int) ([]string, []*cell, bool) {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("%s/%d", gen, i)
	}
	cells := make([]*cell, n)
	recycled := st.bind(keys, cells)
	return keys, cells, recycled
}

// TestReleaseIsIdempotent: a release takes exactly the keys that are there —
// a second release of the same keys, by the same process or another, and a
// release of keys nobody ever named take nothing and disturb nothing — and a
// released key, named again, is a new register nobody has written.
func TestReleaseIsIdempotent(t *testing.T) {
	st := newStore(16)
	keys, cells, _ := bindTable(st, "a", 4)
	other := st.lookup("other")
	other.store(7, &testMetrics)
	for _, c := range cells {
		c.store("v", &testMetrics)
	}
	if got := st.release(keys[:3]); got != 3 {
		t.Fatalf("first release took %d registers, want 3", got)
	}
	if got := st.release(keys[:3]); got != 0 {
		t.Fatalf("second release took %d registers, want 0", got)
	}
	if got := st.release([]string{"never/0", "never/1"}); got != 0 {
		t.Fatalf("release of unnamed keys took %d registers", got)
	}
	if got := st.held(); got != 2 {
		t.Fatalf("table holds %d registers, want the unreleased one and the bystander", got)
	}
	if st.lookup(keys[3]) != cells[3] || cells[3].load() != "v" {
		t.Fatal("releasing its neighbours disturbed a register")
	}
	if v := other.load(); v != 7 {
		t.Fatalf("bystander reads %v, want 7", v)
	}
	if v := st.lookup(keys[0]).load(); v != nil {
		t.Fatalf("a released key, named again, reads %v, want the unwritten register", v)
	}
}

// TestArrayRecycledOnlyWhenAllMintedCellsReleased follows one backing array
// through its life: while any cell minted from it is still in the table the
// array stays out of the free list, whoever binds next allocates, and the
// cells still in use keep their values; with the last one released the next
// bind of that length mints from it, and finds every cell empty. An array
// only partly minted (its bind found some keys already there) is recycled on
// the release of the part that was.
func TestArrayRecycledOnlyWhenAllMintedCellsReleased(t *testing.T) {
	st := newStore(64)
	keys, cells, recycled := bindTable(st, "a", 4)
	if recycled {
		t.Fatal("the first bind of a table minted from a recycled array")
	}
	for i, c := range cells {
		c.store(100+i, &testMetrics)
	}
	st.release(keys[:3])
	if _, fresh, recycled := bindTable(st, "b", 4); recycled || fresh[0].arr == cells[0].arr {
		t.Fatal("an array with a cell still in the table was minted from again")
	}
	if v := cells[3].load(); v != 103 {
		t.Fatalf("the cell still in the table reads %v, want 103", v)
	}
	st.release(keys[3:])
	_, again, recycled := bindTable(st, "c", 4)
	if !recycled || again[0].arr != cells[0].arr {
		t.Fatal("a fully released array was not the next bind's backing array")
	}
	for i, c := range again {
		if c != cells[i] {
			t.Fatalf("cell %d of the recycled array is not where it was", i)
		}
		if v := c.load(); v != nil {
			t.Fatalf("cell %d of the recycled array reads %v, want the unwritten register", i, v)
		}
	}
	if _, _, recycled := bindTable(st, "d", 5); recycled {
		t.Fatal("a bind of another length took the array")
	}

	// Half of e's keys exist when it is bound: its array mints two cells.
	st.lookup("e/0")
	st.lookup("e/2")
	keys, cells, _ = bindTable(st, "e", 4)
	if cells[1].arr != cells[3].arr || cells[0].arr == cells[1].arr {
		t.Fatal("setup: the bind did not mint exactly the missing cells from its own array")
	}
	partly := cells[1].arr
	st.release([]string{keys[1]})
	if _, c, recycled := bindTable(st, "f", 4); recycled && c[0].arr == partly {
		t.Fatal("a partly minted array was recycled with one of its two cells in the table")
	}
	st.release([]string{keys[3]})
	for gen := 0; ; gen++ { // the free list may hand out c's array first
		_, c, recycled := bindTable(st, fmt.Sprintf("g%d", gen), 4)
		if !recycled {
			t.Fatal("a partly minted array was not recycled once its two cells were released")
		}
		if c[0].arr == partly {
			break
		}
	}
}

// TestArrayRecycledAcrossKeysAndTables: keyed binds and tables bound by
// identity draw on one free list. The array a keyed bind minted, once its
// keys are all released, is the array of the next table of its length; a
// released table's array is the one the next keyed bind of its length mints
// from, and goes back to the list when those keys are released. Every cell
// comes back empty each time.
func TestArrayRecycledAcrossKeysAndTables(t *testing.T) {
	st := newStore(16)
	e := &Env{}
	empty := func(what string, cells []*cell) {
		t.Helper()
		for i, c := range cells {
			if v := c.load(); v != nil {
				t.Fatalf("cell %d of %s reads %v, want the unwritten register", i, what, v)
			}
		}
	}
	viewCells := func(v *tableRegs) []*cell {
		cells := make([]*cell, len(v.cells))
		for i := range v.cells {
			cells[i] = &v.cells[i]
		}
		return cells
	}

	keys, cells, _ := bindTable(st, "k", 4)
	for i, c := range cells {
		c.store(100+i, &testMetrics)
	}
	st.release(keys)
	v, recycled := st.bindTable(table("log", "dec", 0, 4), e)
	if !recycled || !slices.Equal(viewCells(v), cells) {
		t.Fatal("a table of 4 did not take the array of the 4 keys released before it")
	}
	empty("the table on the keys' array", cells)

	blk := table("log", "blk", 0, 6)
	v, _ = st.bindTable(blk, e)
	tabCells := viewCells(v)
	for i, c := range tabCells {
		c.store(200+i, &testMetrics)
	}
	st.releaseTable(blk)
	keys, cells, recycled = bindTable(st, "m", 6)
	if !recycled || !slices.Equal(cells, tabCells) {
		t.Fatal("a keyed bind of 6 did not mint from the array of the table of 6 released before it")
	}
	empty("the keys on the table's array", cells)
	for i, c := range cells {
		c.store(300+i, &testMetrics)
	}
	st.release(keys)
	v, recycled = st.bindTable(table("log", "blk", 1, 6), e)
	if !recycled || !slices.Equal(viewCells(v), tabCells) {
		t.Fatal("the table's array, once the keys minted from it were released, was not the next table's")
	}
	empty("the table's array back from the keys", tabCells)
}

// TestBindRacesReleaseOfThePreviousTable is the log's access pattern under
// -race: generation after generation, two binders race to bind the same
// fresh table while a third goroutine releases the table of the generation
// before, whose arrays the binders are drawing from the free list as it
// fills. Both binders must get the same cells, every cell must start empty,
// a value one writes must be the value the other reads, and the table must
// stay two generations small.
func TestBindRacesReleaseOfThePreviousTable(t *testing.T) {
	const gens, width = 400, 32
	st := newStore(4 * width)
	var prev []string
	recycledBinds := 0
	for g := 0; g < gens; g++ {
		keys := make([]string, width)
		for i := range keys {
			keys[i] = fmt.Sprintf("g/%d/%d", g, i)
		}
		var cells [2][]*cell
		var recycled [2]bool
		var wg sync.WaitGroup
		for b := range cells {
			wg.Add(1)
			go func() {
				defer wg.Done()
				cells[b] = make([]*cell, width)
				recycled[b] = st.bind(keys, cells[b])
				for i, c := range cells[b] {
					if i%2 == b {
						c.store(g*width+i, &testMetrics)
					}
				}
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got := st.release(prev); got != len(prev) {
				t.Errorf("generation %d: released %d of the previous table's %d registers", g, got, len(prev))
			}
		}()
		wg.Wait()
		for i := range keys {
			if cells[0][i] != cells[1][i] {
				t.Fatalf("generation %d: %q resolved to two cells", g, keys[i])
			}
			if v := cells[0][i].load(); v != g*width+i {
				t.Fatalf("generation %d: %q reads %v, want %d: a recycled cell was not empty, or a write was lost", g, keys[i], v, g*width+i)
			}
		}
		if recycled[0] || recycled[1] {
			recycledBinds++
		}
		if held := st.held(); held > 2*width {
			t.Fatalf("generation %d: the table holds %d registers, want ≤ %d", g, held, 2*width)
		}
		prev = keys
	}
	if recycledBinds < gens/2 {
		t.Errorf("%d of %d generations minted from a recycled array, want most", recycledBinds, gens)
	}
}

// TestRearmAfterReleaseForgetsHandles: a runtime remembers a process's first
// Binds for the next run to take back. Once a run has released keys, a
// remembered handle to them points at cells the table no longer maps; handed
// back, it would put its process on registers nobody else can see. The next
// Reset builds a new table and forgets the handles: a value one process
// writes through the table it bound at the remembered position is the value
// the other reads by key.
func TestRearmAfterReleaseForgetsHandles(t *testing.T) {
	keys := []string{"t/0", "t/1"}
	var wrote sync.WaitGroup
	run := 0
	cfg := Config{
		NC: 2, Inputs: vec.Of(1, 2), Pattern: fdet.FailureFree(0), Registers: 8,
		CBody: func(i int) sim.Body {
			return func(e sim.Ops) {
				if i == 0 {
					r := e.Bind(keys) // call position 0 in every run
					r.Write(0, 100+run)
					if run == 0 {
						e.Release(keys)
					}
					wrote.Done()
				} else {
					wrote.Wait()
					if got, want := e.Read(keys[0]), any(101); run == 1 && got != want {
						t.Errorf("second run: keyed read of %q = %v, want %v written through the bound table", keys[0], got, want)
					}
				}
				e.Decide(0)
			}
		},
	}
	rt := new(Runtime)
	var first *store
	for run = 0; run < 2; run++ {
		wrote.Add(1)
		if err := rt.Reset(cfg); err != nil {
			t.Fatal(err)
		}
		if run == 0 {
			first = rt.store
		}
		if res := rt.Run(time.Minute); res.Reason != ReasonAllDecided {
			t.Fatalf("run %d ended %v", run, res.Reason)
		}
	}
	if rt.store == first {
		t.Error("the table survived a Reset after one of its keys was released")
	}
}
