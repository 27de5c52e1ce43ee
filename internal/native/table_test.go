package native

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	"wfadvice/internal/fdet"
	"wfadvice/internal/obs"
	"wfadvice/internal/paxos"
	"wfadvice/internal/sim"
	"wfadvice/internal/vec"
)

// This file tests tables bound by identity (sim.Tables): the registry, what
// the counters say about it, and the rule that one space is reached one way.

func table(space, family string, window, n int) sim.Table {
	return sim.Table{Space: space, Family: family, Window: window, Len: n}
}

// runBody runs body as the one C-process of a fresh runtime and returns the
// runtime, so a test can look at its table after the run.
func runBody(t *testing.T, body func(e *Env)) *Runtime {
	t.Helper()
	rt, err := New(Config{
		NC: 1, Inputs: vec.Of(1), Pattern: fdet.FailureFree(0),
		CBody: func(int) sim.Body {
			return func(e sim.Ops) {
				body(e.(*Env))
				e.Decide(0)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res := rt.Run(time.Minute); res.Reason != ReasonAllDecided {
		t.Fatalf("run ended %v", res.Reason)
	}
	return rt
}

// TestTableRegistryPinnedWindow: a window bound and never released — the one
// a crashed replica announced — costs the registry one entry, however far the
// other windows move on from it. With one window pinned, 10 000 more are
// bound and released behind at a lag of 34, the way a log walks on, and make
// no more than a few objects and bytes: a registry that spans every window
// from the pinned one to the newest grows with the distance walked.
func TestTableRegistryPinnedWindow(t *testing.T) {
	const warm, walk, lag, rounds = 200, 10_000, 34, 3
	least := struct{ objects, bytes uint64 }{math.MaxUint64, math.MaxUint64}
	for range rounds {
		rt := &Runtime{store: newStore(0)}
		e := &Env{r: rt, m: Telemetry.Handle()}
		dec := func(w int) sim.Table { return table("log", "dec", w, 8) }
		step := func(w int) {
			e.BindTable(dec(w))
			if w-lag > 0 {
				e.ReleaseTable(dec(w - lag))
			}
		}
		e.BindTable(dec(0)) // pinned
		for w := 1; w <= warm; w++ {
			step(w)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for w := warm + 1; w <= warm+walk; w++ {
			step(w)
		}
		runtime.ReadMemStats(&after)
		least.objects = min(least.objects, after.Mallocs-before.Mallocs)
		least.bytes = min(least.bytes, after.TotalAlloc-before.TotalAlloc)
		if got, want := rt.Registers(), 8*(1+lag); got != want {
			t.Fatalf("Registers() = %d after the walk, want %d: the pinned window and the newest %d", got, want, lag)
		}
	}
	t.Logf("%d windows walked past a pinned one: %d objects, %d B", walk, least.objects, least.bytes)
	if least.objects > 4 || least.bytes > 32<<10 {
		t.Errorf("%d windows walked past a pinned one made %d objects and %d B, want at most 4 and 32 KB", walk, least.objects, least.bytes)
	}
}

// TestTableBindReleaseCounts: binding a table looks up no key and binding it
// again from another handle gets the same registers, which no table of
// another family or space shares; releasing it counts its registers released
// once, however often it is released, and hands its array to the next table
// of that length; Registers counts the cells of the tables held.
func TestTableBindReleaseCounts(t *testing.T) {
	before := Telemetry.Snapshot()
	var problems []string
	fail := func(format string, args ...any) { problems = append(problems, fmt.Sprintf(format, args...)) }
	var after obs.Snapshot
	rt := runBody(t, func(e *Env) {
		a := e.BindTable(table("log", "dec", 3, 8))
		a.WriteInt(2, 42)
		if v, ok := e.BindTable(table("log", "dec", 3, 8)).ReadInt(2); !ok || v != 42 {
			fail("a second bind of the table reads %v %v, want 42", v, ok)
		}
		if a.Len() != 8 {
			fail("Len %d, want 8", a.Len())
		}
		if v := e.BindTable(table("log", "blk", 3, 24)).Read(2); v != nil {
			fail("the blk table of window 3 reads %v at slot 2, want nil", v)
		}
		if v := e.BindTable(table("other", "dec", 0, 8)).Read(2); v != nil {
			fail("the dec table of another space reads %v at slot 2, want nil", v)
		}
		e.ReleaseTable(table("log", "dec", 3, 8))
		e.ReleaseTable(table("log", "dec", 3, 8)) // stale: skipped
		b := e.BindTable(table("log", "dec", 4, 8))
		if v := b.Read(2); v != nil {
			fail("the next table of 8 reads %v in the recycled array, want nil", v)
		}
		after = Telemetry.Snapshot()
	})
	d := after.Delta(before).Map()
	if d["store_shard_lookup"] != 0 || d["reg_released"] != 8 || d["cell_array_reused"] != 1 {
		t.Errorf("counters %v: want no shard lookup, 8 registers released and 1 recycled array", d)
	}
	if got := rt.Registers(); got != 24+8+8 {
		t.Errorf("Registers() = %d, want the 40 cells of the three tables held", got)
	}
	if len(problems) > 0 {
		t.Fatal(strings.Join(problems, "\n"))
	}
}

// TestTableArraysCarvedFromBlocks: three processes bind windows of two
// lengths and release none, the way a crashed replica's log pins them. Their
// arrays are cut from blocks of each length: the windows cost two objects a
// block, the registry map's growth and a few more; no two arrays share a cell; and
// every array keeps TestCellStride's stride, each cell's hot words in one
// cache line. Once some windows are released, the next binds take those
// arrays before a block's unbound ones and make nothing, and Registers
// counts the bound windows' cells, never the arrays nobody has bound.
func TestTableArraysCarvedFromBlocks(t *testing.T) {
	const windows, again = 200, 20
	lens := map[string]int{"dec": 8, "blk": 24}
	rt := &Runtime{store: newStore(0)}
	envs := make([]*Env, 3)
	for i := range envs {
		envs[i] = &Env{r: rt, m: Telemetry.Handle()}
	}
	bind := func(e *Env, from, to int) {
		for w := from; w < to; w++ {
			for fam, n := range lens {
				e.BindTable(table("log", fam, w, n))
			}
		}
	}
	// count returns the objects f allocates.
	count := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}

	// The processes bind the windows at once; the count takes in what their
	// start and finish allocate, which the last term allows for.
	var start, done sync.WaitGroup
	start.Add(1)
	done.Add(len(envs))
	for _, e := range envs {
		go func() {
			defer done.Done()
			start.Wait()
			bind(e, 0, windows)
		}()
	}
	objects := count(func() {
		start.Done()
		done.Wait()
	})
	blocks := 0 // per length: blocks of 1, 2, 4, 8, then blockMax arrays
	for carved, k := 0, 1; carved < windows; carved, k = carved+k, min(2*k, blockMax) {
		blocks++
	}
	blocks *= len(lens)
	t.Logf("%d windows of %d tables: %d objects, %d blocks", windows, len(lens), objects, blocks)
	if want := uint64(2*blocks + len(lens)*bits.Len(windows) + 32); objects > want {
		t.Errorf("%d windows made %d objects, want at most %d: two a block, the map's growth and a few", windows, objects, want)
	}

	addr := func(p any) uintptr { return reflect.ValueOf(p).Pointer() }
	hot := unsafe.Offsetof(cell{}.box) + unsafe.Sizeof(cell{}.box)
	type span struct{ lo, hi uintptr }
	var spans []span
	for _, a := range rt.store.tables {
		spans = append(spans, span{addr(&a.cells[0]), addr(&a.cells[0]) + uintptr(cap(a.cells))*cellSize})
		for i := range a.cells {
			c := addr(&a.cells[i])
			if i > 0 && c-addr(&a.cells[i-1]) != cellSize {
				t.Fatalf("cells %d and %d of one array are %d bytes apart, want %d", i-1, i, c-addr(&a.cells[i-1]), cellSize)
			}
			if addr(&a.cells[i].mode) != c || c%64+hot > 64 {
				t.Fatalf("cell %d's hot words span [%d, %d) of a cache line, want one line", i, c%64, c%64+hot)
			}
		}
	}
	if len(spans) != windows*len(lens) {
		t.Fatalf("%d arrays filed, want %d", len(spans), windows*len(lens))
	}
	slices.SortFunc(spans, func(a, b span) int { return cmp.Compare(a.lo, b.lo) })
	for i := 1; i < len(spans); i++ {
		if spans[i].lo < spans[i-1].hi {
			t.Fatalf("arrays [%#x, %#x) and [%#x, %#x) share cells", spans[i-1].lo, spans[i-1].hi, spans[i].lo, spans[i].hi)
		}
	}

	// Each round releases the oldest windows and binds as many new ones, in
	// turn on one goroutine, so that only the binds are counted; the least
	// count of the rounds leaves out what the runtime allocates meanwhile.
	const rounds = 4
	least := uint64(math.MaxUint64)
	for r := range rounds {
		lo, hi := windows+r*again, windows+(r+1)*again
		for w := lo - windows; w < hi-windows; w++ {
			for fam, n := range lens {
				envs[0].ReleaseTable(table("log", fam, w, n))
			}
		}
		var parked []*regArray
		for _, l := range rt.store.free {
			parked = append(parked, l...)
		}
		before := Telemetry.Snapshot()
		least = min(least, count(func() {
			for w := lo; w < hi; w++ {
				for _, e := range envs {
					bind(e, w, w+1)
				}
			}
		}))
		if got := Telemetry.Snapshot().Delta(before).Map()["cell_array_reused"]; got != int64(again*len(lens)) {
			t.Fatalf("round %d: rebinding %d windows after releasing as many recycled %d arrays, want %d", r, again, got, again*len(lens))
		}
		filed := map[*regArray]bool{}
		for _, a := range rt.store.tables {
			filed[a] = true
		}
		for _, a := range parked {
			if !filed[a] {
				t.Fatalf("round %d: a released array %p is not serving a table after the rebinds", r, a)
			}
		}
	}
	if least != 0 {
		t.Errorf("rebinding windows onto released arrays made at least %d objects in each of %d rounds, want none", least, rounds)
	}

	unbound := 0
	for _, b := range rt.store.blocks {
		unbound += len(b.arrays)
	}
	if unbound == 0 {
		t.Fatal("no block holds an unbound array: Registers has nothing to leave out")
	}
	if got, want := rt.Registers(), windows*(lens["dec"]+lens["blk"]); got != want {
		t.Errorf("Registers() = %d with %d arrays unbound in blocks, want the %d cells of the windows bound", got, unbound, want)
	}
}

// TestTableStaleReleaseIsSkipped: two views release the same window, the
// second after the first's array went to a newer table. The second release
// finds nothing under the window's identity and leaves the newer table, which
// holds the recycled array, alone.
func TestTableStaleReleaseIsSkipped(t *testing.T) {
	runBody(t, func(e *Env) {
		old := table("log", "dec", 0, 4)
		e.BindTable(old)
		e.ReleaseTable(old) // the first view
		fresh := e.BindTable(table("log", "dec", 1, 4))
		fresh.WriteInt(0, 7)
		before := Telemetry.Snapshot()
		e.ReleaseTable(old) // the second view, late
		if n := Telemetry.Snapshot().Delta(before).Map()["reg_released"]; n != 0 {
			t.Errorf("a stale release released %d registers", n)
		}
		if v, ok := fresh.ReadInt(0); !ok || v != 7 {
			t.Errorf("the table holding the recycled array reads %v %v after a stale release, want 7", v, ok)
		}
		if v, ok := e.BindTable(table("log", "dec", 1, 4)).ReadInt(0); !ok || v != 7 {
			t.Errorf("a fresh bind of the newer table reads %v %v, want 7", v, ok)
		}
	})
}

// TestTableViewsArePerProcess: processes bind and release the same tables
// concurrently, round after round, while one more binds every table and
// releases none — a crashed replica's shape. Every process gets a view of
// its own, holding its Env and collecting into a buffer of its own; no view
// ever serves two processes, not when an array released by the others comes
// back for a later table; and a view shows the table it was bound for, empty
// before its process writes it and collecting every process's write to it.
// Run with four processes, whose views all fit in the array, and with six,
// two of whose views do not.
func TestTableViewsArePerProcess(t *testing.T) {
	for _, n := range []int{4, 6} {
		t.Run(fmt.Sprint(n), func(t *testing.T) { racePerProcessViews(t, n) })
	}
}

func racePerProcessViews(t *testing.T, n int) {
	const rounds = 200
	pinner := n - 1
	fronts := keyTable("front", n)
	views := make([][rounds]*tableRegs, n)
	bufs := make([][rounds]*sim.Value, n)
	envs := make([]*Env, n)
	problems := make([][]string, n)
	before := Telemetry.Snapshot()
	cfg := Config{
		NC: n, Inputs: make(vec.Vector, n), Pattern: fdet.FailureFree(0),
		CBody: func(i int) sim.Body {
			return func(ops sim.Ops) {
				e := ops.(*Env)
				envs[i] = e
				fail := func(format string, args ...any) { problems[i] = append(problems[i], fmt.Sprintf(format, args...)) }
				fr := e.Bind(fronts)
				// barrier returns once every process has published phase.
				barrier := func(phase int) {
					fr.WriteInt(i, phase)
					for j := 0; j < n; {
						if f, _ := fr.ReadInt(j); f >= phase {
							j++
						} else {
							e.AwaitEpoch(e.Epoch())
						}
					}
				}
				for r := 0; r < rounds; r++ {
					tab := table("log", "dec", r, 8)
					v := e.BindTable(tab).(*tableRegs)
					views[i][r] = v
					if got := v.Read(i); got != nil {
						fail("round %d: slot %d reads %v before its only writer wrote it", r, i, got)
					}
					v.WriteInt(i, r+1)
					barrier(2*r + 1)
					got := v.ReadMany(nil)
					bufs[i][r] = &got[0]
					for j := range n {
						if x, _ := got[j].(int); x != r+1 {
							fail("round %d: slot %d collects %v, want %d", r, j, got[j], r+1)
						}
					}
					barrier(2*r + 2)
					if i != pinner {
						e.ReleaseTable(tab)
					}
				}
				e.Decide(0)
			}
		},
	}
	for i := range cfg.Inputs {
		cfg.Inputs[i] = i + 1
	}
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res := rt.Run(time.Minute); res.Reason != ReasonAllDecided {
		t.Fatalf("run ended %v", res.Reason)
	}
	for i := range problems {
		if len(problems[i]) > 0 {
			t.Fatalf("process %d: %s", i, strings.Join(problems[i], "\n"))
		}
	}
	owner := map[*tableRegs]int{}
	for r := 0; r < rounds; r++ {
		buf := map[*sim.Value]int{}
		for i := range n {
			v := views[i][r]
			if v.e != envs[i] {
				t.Fatalf("round %d: process %d's view holds the Env of %v", r, i, v.e.id)
			}
			if j, ok := owner[v]; ok && j != i {
				t.Fatalf("round %d: process %d got the view process %d held", r, i, j)
			}
			owner[v] = i
			if j, ok := buf[bufs[i][r]]; ok {
				t.Fatalf("round %d: processes %d and %d collect into one buffer", r, j, i)
			}
			buf[bufs[i][r]] = i
		}
	}
	if d := Telemetry.Snapshot().Delta(before).Map(); d["cell_array_reused"] == 0 {
		t.Errorf("no array came back for a later table: counters %v", d)
	}
}

// TestTableSpaceIsReachedOneWay: a run that reaches one space by table and by
// key panics at the second kind of access, whichever comes first, and says
// so. Keys outside the space's slot keys — a log's frontier registers, say —
// are not in it.
func TestTableSpaceIsReachedOneWay(t *testing.T) {
	caught := func(f func()) (msg string) {
		defer func() { msg = fmt.Sprint(recover()) }()
		f()
		return ""
	}
	var tableFirst, keyFirst, keyRead string
	runBody(t, func(e *Env) {
		e.BindTable(table("log", "dec", 0, 4))
		e.Bind([]string{"log/frontier/0", "logs/1/dec", "log"}) // not in the space
		tableFirst = caught(func() { e.Bind([]string{"log/5/blk/0"}) })
		keyRead = caught(func() { e.Read("log/1/dec") })
	})
	runBody(t, func(e *Env) {
		e.Write("log/0/dec", 1)
		keyFirst = caught(func() { e.BindTable(table("log", "blk", 2, 8)) })
	})
	for what, msg := range map[string]string{"a key after a table": tableFirst, "a keyed read after a table": keyRead, "a table after a key": keyFirst} {
		if !strings.Contains(msg, `space "log"`) && !strings.Contains(msg, `holds key "log/0/dec"`) {
			t.Errorf("%s: panicked with %q, want a message naming the space", what, msg)
		}
	}
}

// TestTableSpaceRacePanicsOnce races the two ways into a fresh space: one
// goroutine mints the slot key sp/0/dec while another binds the space's
// first table, both released at once. Whichever reaches the table second
// must panic, so exactly one of them does in every round; neither would mean
// one log split over both paths, both a space refused that was reached one
// way. Run it under -race.
func TestTableSpaceRacePanicsOnce(t *testing.T) {
	const rounds = 500
	st := newStore(0)
	e := new(Env)
	panicked := func(f func()) (p bool) {
		defer func() { p = recover() != nil }()
		f()
		return false
	}
	var won [2]int
	for r := 0; r < rounds; r++ {
		sp := fmt.Sprintf("sp%d", r)
		var keyPanicked, tablePanicked bool
		var start, done sync.WaitGroup
		start.Add(1)
		done.Add(2)
		go func() {
			defer done.Done()
			start.Wait()
			keyPanicked = panicked(func() { st.lookup(sp + "/0/dec") })
		}()
		go func() {
			defer done.Done()
			start.Wait()
			tablePanicked = panicked(func() { st.bindTable(table(sp, "dec", 0, 4), e) })
		}()
		start.Done()
		done.Wait()
		if keyPanicked == tablePanicked {
			t.Fatalf("round %d: key mint panicked %v, table bind panicked %v; want exactly one", r, keyPanicked, tablePanicked)
		}
		if keyPanicked {
			won[1]++
		} else {
			won[0]++
		}
	}
	t.Logf("%d rounds: the key came first %d times, the table %d", rounds, won[0], won[1])
}

// machineLogs is the Theorem 9 machine's log shape: each of n C-processes
// walks logs of one slot a window on the handle wrap makes of its Env,
// proposing in every slot, and truncates none of them.
func machineLogs(n, slots int, prefixes []string, wrap func(sim.Ops) sim.Ops) Config {
	return Config{
		NC: n, Inputs: vec.Of(1, 2, 3), Pattern: fdet.FailureFree(0),
		CBody: func(i int) sim.Body {
			return func(raw sim.Ops) {
				e := wrap(raw)
				for _, prefix := range prefixes {
					l := paxos.NewLog(e, prefix, i, n, 1)
					for s := 0; s < slots; s++ {
						p := l.Proposer(s)
						p.SetProposal(i)
						for decided := false; !decided; {
							_, decided = p.StepOp(true)
						}
						l.Release(s)
					}
				}
				e.Decide(0)
			}
		},
	}
}

// TestRearmKeepsTableBoundLogs: a runtime re-armed for the Theorem 9
// machine's shape — several logs of one slot a window, proposed in and never
// truncated — keeps its table, registry included, across runs, and every
// table bound again reads empty.
func TestRearmKeepsTableBoundLogs(t *testing.T) {
	const n, slots = 3, 5
	prefixes := []string{"adm", "cell/0", "cell/1"}
	stale := 0
	cfg := machineLogs(n, slots, prefixes, func(e sim.Ops) sim.Ops { return e })
	rt := new(Runtime)
	var first *store
	var held int
	for run := 0; run < 20; run++ {
		if err := rt.Reset(cfg); err != nil {
			t.Fatal(err)
		}
		if run == 0 {
			first = rt.store
		} else if rt.store != first {
			t.Fatalf("run %d: the table was rebuilt", run)
		} else {
			for _, a := range rt.store.tables {
				for i := range a.cells {
					if a.cells[i].load() != nil {
						stale++
					}
				}
			}
		}
		if res := rt.Run(time.Minute); res.Reason != ReasonAllDecided {
			t.Fatalf("run %d ended %v", run, res.Reason)
		}
		if run == 0 {
			held = rt.Registers()
		} else if rt.Registers() != held {
			t.Fatalf("run %d: %d registers held, %d after the first", run, rt.Registers(), held)
		}
	}
	if want := len(prefixes) * slots * (1 + n); held != want {
		t.Errorf("%d registers held, want %d: a decision and %d blocks a slot", held, want, n)
	}
	if stale > 0 {
		t.Errorf("%d registers read non-nil after a re-arm", stale)
	}
}

// keyOnly is a decorator that embeds sim.Ops and adds nothing, as a tracing
// decorator does: a paxos.Log on it binds its windows by key.
type keyOnly struct{ sim.Ops }

// TestRearmTableBoundLogsAllocs: re-armed for the machine's log shape —
// three logs of one slot a window, 20 slots each, on three processes — a run
// binds its 180 windows again through the views their arrays kept, and pays
// for its logs and its processes, not for a handle or a window struct per
// window bound (≈ 130 a run; ≈ 1 030 when each bind took a handle). Behind a
// decorator the logs bind keys: each window pays its key string and slice,
// and each bind a handle and its cells slice (≈ 1 635 a run).
func TestRearmTableBoundLogsAllocs(t *testing.T) {
	const n, slots, warm, runs = 3, 20, 5, 50
	for _, c := range []struct {
		name string
		wrap func(sim.Ops) sim.Ops
		max  float64
	}{
		{"tables", func(e sim.Ops) sim.Ops { return e }, 200},
		{"keys", func(e sim.Ops) sim.Ops { return keyOnly{e} }, 1800},
	} {
		cfg := machineLogs(n, slots, []string{"adm", "cell/0", "cell/1"}, c.wrap)
		rt := new(Runtime)
		run := func() {
			if err := rt.Reset(cfg); err != nil {
				t.Fatal(err)
			}
			if res := rt.Run(time.Minute); res.Reason != ReasonAllDecided {
				t.Fatalf("%s: run ended %v", c.name, res.Reason)
			}
		}
		for range warm {
			run()
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			run()
		}
		runtime.ReadMemStats(&after)
		per := float64(after.Mallocs-before.Mallocs) / runs
		t.Logf("%s: %.1f objects a run", c.name, per)
		if per > c.max {
			t.Errorf("%s: %.1f objects a run, want at most %v", c.name, per, c.max)
		}
	}
}
