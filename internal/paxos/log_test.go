package paxos

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"wfadvice/internal/fdet"
	"wfadvice/internal/native"
	"wfadvice/internal/sim"
	"wfadvice/internal/vec"
)

// logBody chains ops values into the log "log": process 0 is the sole
// leader and proposes sequentially; everyone applies decided slots in order
// via Sweep and decides its applied sequence once want entries are in.
func logBody(n, ops, want int) func(i int) sim.Body {
	return func(i int) sim.Body {
		return func(e sim.Ops) {
			l := NewLog(e, "log", i, n, 0)
			var applied []Value
			next, cursor, k := 0, 0, 0
			for len(applied) < want {
				next = l.Sweep(next, func(s int, v Value) bool {
					applied = append(applied, v)
					l.Release(s)
					return len(applied) < want
				})
				if i != 0 || k >= ops {
					continue
				}
				if cursor < next {
					cursor = next
				}
				p := l.Proposer(cursor)
				p.SetProposal(fmt.Sprintf("v/%d", k))
				if v, ok := p.StepOp(true); ok {
					if v == fmt.Sprintf("v/%d", k) {
						k++
					}
					l.Release(cursor)
					cursor++
				}
			}
			e.Decide(fmt.Sprint(applied))
		}
	}
}

func TestLogChainsDecisionsInOrder(t *testing.T) {
	const n, ops = 3, 5
	inputs := vec.New(n)
	for i := range inputs {
		inputs[i] = i
	}
	cfg := sim.Config{
		NC:       n,
		Inputs:   inputs,
		CBody:    logBody(n, ops, ops),
		Pattern:  fdet.FailureFree(0),
		MaxSteps: 500_000,
	}
	rt, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := rt.Run(&sim.RoundRobin{})
	want := fmt.Sprint([]Value{"v/0", "v/1", "v/2", "v/3", "v/4"})
	for i, v := range res.Outputs {
		if v != want {
			t.Fatalf("p%d applied %v, want %v (reason %v)", i, v, want, res.Reason)
		}
	}
}

// TestLogSweepCrossesWindows pre-decides slots straddling several bind
// windows and checks that successive Sweeps collect them all, in order, each
// stopping at its window's end, with the frontier landing on the first
// undecided slot.
func TestLogSweepCrossesWindows(t *testing.T) {
	const slots = 150 // > 2*logWindow
	cfg := sim.Config{
		NC:     1,
		Inputs: vec.Vector{0},
		CBody: func(i int) sim.Body {
			return func(e sim.Ops) {
				for s := 0; s < slots; s++ {
					e.Write(DecKey(SlotKey("log", s)), s)
				}
				l := NewLog(e, "log", 0, 1, 0)
				var got []Value
				next := 0
				for _, want := range []int{logWindow, 2 * logWindow, slots, slots} {
					next = l.Sweep(next, func(s int, v Value) bool {
						got = append(got, v)
						return true
					})
					if next != want {
						e.Decide(fmt.Sprintf("frontier %d, want %d", next, want))
						return
					}
				}
				for s, v := range got {
					if v != s {
						e.Decide(fmt.Sprintf("slot %d applied %v", s, v))
						return
					}
				}
				if _, ok := l.Decided(slots); ok {
					e.Decide("slot past frontier reported decided")
					return
				}
				// Early stop: apply exactly one more slot.
				e.Write(DecKey(SlotKey("log", slots)), slots)
				e.Write(DecKey(SlotKey("log", slots+1)), slots+1)
				stopped := l.Sweep(next, func(s int, v Value) bool { return false })
				if stopped != slots+1 {
					e.Decide(fmt.Sprintf("early-stop frontier %d, want %d", stopped, slots+1))
					return
				}
				e.Decide("ok")
			}
		},
		Pattern:  fdet.FailureFree(0),
		MaxSteps: 50_000,
	}
	rt, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := rt.Run(&sim.RoundRobin{})
	if res.Outputs[0] != "ok" {
		t.Fatalf("log sweep: %v (reason %v)", res.Outputs[0], res.Reason)
	}
}

// TestWindowKeyTables: the key tables a Log cuts out of one buffer hold
// exactly the keys the string forms name, in window order — slot i's
// decision register at i, proposer j's block of slot i at i*nProps+j.
func TestWindowKeyTables(t *testing.T) {
	const nProps, base = 3, 9_984 // the slot numbers gain a digit inside the window
	e := &bindRecorder{}
	l := NewLog(e, "kv/log", 1, nProps, 0)
	l.Proposer(9_990) // moves the window to the aligned base that covers the slot
	if len(e.tables) != 2 || len(e.tables[0]) != logWindow || len(e.tables[1]) != logWindow*nProps {
		t.Fatalf("bound %d tables, want the decision window and its block table", len(e.tables))
	}
	for i := 0; i < logWindow; i++ {
		key := SlotKey("kv/log", base+i)
		if got := e.tables[0][i]; got != DecKey(key) {
			t.Fatalf("decision key %d = %q, want %q", i, got, DecKey(key))
		}
		for j := 0; j < nProps; j++ {
			if got := e.tables[1][i*nProps+j]; got != BlockKey(key, j) {
				t.Fatalf("block key %d/%d = %q, want %q", i, j, got, BlockKey(key, j))
			}
		}
	}
	if got := SlotKey("kv/log", 12); got != "kv/log/12" {
		t.Errorf("SlotKey = %q", got)
	}
}

// bindRecorder is a backend that only records the key tables bound on it:
// a copy of each, since a Log refills a table's slice once it has released
// it, and the slice itself. The handles it returns do nothing.
type bindRecorder struct {
	sim.Ops
	tables [][]string
	bound  [][]string
}

type nopRegs struct{ sim.Regs }

func (b *bindRecorder) Bind(keys []string) sim.Regs {
	b.tables = append(b.tables, slices.Clone(keys))
	b.bound = append(b.bound, keys)
	return nopRegs{}
}

// TestLogSlotAllocs is the allocation guard on the log's per-slot path, on
// the native backend. One view drives its log a slot at a time — propose,
// decide, sweep, release the proposer — and truncates behind its frontier as
// a kv replica does, for a proposal of a small int and of a pointer: the
// phase-1 block points into a package table, the phase-2 block into the
// Log's slab, and the decision register stores the proposal itself. The raw
// native Env binds the log's windows as tables, so a window costs nothing
// once an earlier one was released, and a slot costs only its share of the
// slab chunk that holds its phase-2 block, one per sim.SlabMax slots (two
// objects under -race, whose instrumented slices.Grow allocates its scratch
// too). The count is of whole windows, the least of a few rounds: the
// runtime's own goroutine may still be allocating as it parks when the first
// round starts (TestLogTableWindowsAllocNothing counts a whole run). Once a
// window is bound, minting a slot's proposer allocates nothing.
func TestLogSlotAllocs(t *testing.T) {
	const warm, windows, rounds = 16, 4, 8
	var cycle, ptrCycle int
	var mint float64
	cfg := native.Config{
		NC: 1, Inputs: vec.Of(1),
		CBody: func(int) sim.Body {
			return func(e sim.Ops) {
				l := NewLog(e, "log", 0, 3, 0)
				next := 0
				var proposal Value
				drive := func() {
					p := l.Proposer(next)
					p.SetProposal(proposal)
					for decided := false; !decided; {
						_, decided = p.StepOp(true)
					}
					next = l.Sweep(next, func(s int, _ Value) bool {
						l.Release(s)
						return true
					})
					l.Truncate(next)
				}
				least := func() int {
					objects := -1
					for range rounds {
						var before, after runtime.MemStats
						runtime.ReadMemStats(&before)
						for range windows * logWindow {
							drive()
						}
						runtime.ReadMemStats(&after)
						if n := int(after.Mallocs - before.Mallocs); objects < 0 || n < objects {
							objects = n
						}
					}
					return objects
				}
				proposal = 7 // the runtime boxes small ints statically
				for range warm * logWindow {
					drive() // the first windows allocate what later ones reuse
				}
				cycle = least()
				proposal = &struct{ n int }{7}
				ptrCycle = least()
				l.Proposer(next) // binds the window's blocks if the last slide was a sweep's
				l.Release(next)
				mint = testing.AllocsPerRun(100, func() {
					l.Proposer(next)
					l.Release(next)
				})
				e.Decide(0)
			}
		},
		Pattern: fdet.FailureFree(0),
	}
	rt, err := native.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r := rt.Run(time.Minute); r.Reason != native.ReasonAllDecided {
		t.Fatalf("run ended %v", r.Reason)
	}
	t.Logf("%d windows of slot cycles: %d objects, %d with a pointer proposal", windows, cycle, ptrCycle)
	want := 2 * windows * logWindow / sim.SlabMax
	if cycle > want {
		t.Errorf("%d windows of slot cycles: %d objects, want at most %d: the slab's chunks", windows, cycle, want)
	}
	if ptrCycle > want {
		t.Errorf("%d windows of slot cycles with a pointer proposal: %d objects, want at most %d: the slab's chunks", windows, ptrCycle, want)
	}
	if mint != 0 {
		t.Errorf("Log.Proposer inside a bound window: %v allocs, want 0", mint)
	}
}

// bindCounter counts the tables bound through it.
type bindCounter struct {
	sim.Ops
	n *int
}

func (b bindCounter) Bind(keys []string) sim.Regs {
	*b.n++
	return b.Ops.Bind(keys)
}

// TestLogWindowAllocs is the allocation guard on the log's per-window path,
// on the native backend: two views of one log — a proposer, which binds a
// decision and a block table per window, and a follower, which binds the
// decision table — walk it a window at a time and truncate what both have
// passed, and a window costs at most three objects per table bound — the
// string its keys are cut from, the handle and its cells slice — and one
// more: the string of the block keys the follower releases without having
// bound them. The window structs and their key slices come back from the
// windows Truncate released: a slice per table would cost 128 more. The
// slots are decided by keyed writes of keys formatted up front, so the slot
// path's own costs (TestLogSlotAllocs) stay out of the count. The count is
// the least of a few rounds: the runtime's own goroutine may still be
// allocating as it parks when the first round starts.
func TestLogWindowAllocs(t *testing.T) {
	const window, warm, windows, rounds = 8, 16, 32, 5
	decKeys := make([]string, (warm+rounds*windows)*window)
	for s := range decKeys {
		decKeys[s] = DecKey(SlotKey("log", s))
	}
	var objects, tables int
	cfg := native.Config{
		NC: 1, Inputs: vec.Of(1),
		CBody: func(int) sim.Body {
			return func(e sim.Ops) {
				binds := 0
				lead := NewLog(bindCounter{e, &binds}, "log", 0, 2, window)
				follow := NewLog(bindCounter{e, &binds}, "log", 1, 2, window)
				next := 0
				walk := func() {
					lead.Proposer(next) // binds the window's blocks
					lead.Release(next)
					for end := next + window; next < end; next++ {
						e.Write(decKeys[next], 7)
						if lead.Sweep(next, func(int, Value) bool { return false }) != next+1 ||
							follow.Sweep(next, func(int, Value) bool { return false }) != next+1 {
							panic(fmt.Sprintf("slot %d did not sweep", next))
						}
					}
					lead.Truncate(next)
					follow.Truncate(next)
				}
				for i := 0; i < warm; i++ {
					walk() // the first windows allocate what later ones reuse
				}
				objects = -1
				for range rounds {
					var before, after runtime.MemStats
					binds = 0
					runtime.ReadMemStats(&before)
					for i := 0; i < windows; i++ {
						walk()
					}
					runtime.ReadMemStats(&after)
					if n := int(after.Mallocs - before.Mallocs); objects < 0 || n < objects {
						objects = n
					}
					tables = binds
				}
				e.Decide(0)
			}
		},
		Pattern: fdet.FailureFree(0),
	}
	rt, err := native.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r := rt.Run(time.Minute); r.Reason != native.ReasonAllDecided {
		t.Fatalf("run ended %v", r.Reason)
	}
	if tables != 3*windows {
		t.Fatalf("%d windows bound %d tables, want %d", windows, tables, 3*windows)
	}
	t.Logf("%d windows: %d objects for %d tables", windows, objects, tables)
	if objects > 3*tables+windows {
		t.Errorf("%d windows: %d objects for %d tables, want at most three per table and one per window", windows, objects, tables)
	}
}

// TestLogFirstSlotBytes: a Log's block slab starts small, so a log that
// commits a few slots — the Theorem 9 machine's window-1 logs — pays for its
// blocks about what a box per block would cost, not a full chunk of them
// (8 KB). Once its window is bound, a fresh Log's first committed slot
// allocates under 1 KB on the native backend.
func TestLogFirstSlotBytes(t *testing.T) {
	var bytes uint64
	cfg := native.Config{
		NC: 1, Inputs: vec.Of(1),
		CBody: func(int) sim.Body {
			return func(e sim.Ops) {
				l := NewLog(e, "log", 0, 3, 1)
				p := l.Proposer(0) // binds the window
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				p.SetProposal(7)
				for decided := false; !decided; {
					_, decided = p.StepOp(true)
				}
				runtime.ReadMemStats(&after)
				bytes = after.TotalAlloc - before.TotalAlloc
				e.Decide(0)
			}
		},
		Pattern: fdet.FailureFree(0),
	}
	rt, err := native.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r := rt.Run(time.Minute); r.Reason != native.ReasonAllDecided {
		t.Fatalf("run ended %v", r.Reason)
	}
	t.Logf("a fresh Log's first slot allocated %d B", bytes)
	if bytes >= 1024 {
		t.Errorf("a fresh Log's first slot allocated %d B, want under 1 KB", bytes)
	}
}

// TestLogBlocksStayPut: a block register holds a pointer into its writer's
// slab, so what a reader got from it must not change however many slots
// commit after — past every chunk rollover of the slab, a full-grown chunk
// of sim.SlabMax blocks's included.
func TestLogBlocksStayPut(t *testing.T) {
	const slots = 3 * sim.SlabMax // the chunks before a full-grown one hold under 2*SlabMax blocks
	cfg := sim.Config{
		NC:     1,
		Inputs: vec.Vector{0},
		CBody: func(int) sim.Body {
			return func(e sim.Ops) {
				l := NewLog(e, "log", 0, 2, 0)
				type held struct {
					b   *Block
					was Block
				}
				var blocks []held
				for s := 0; s < slots; s++ {
					p := l.Proposer(s)
					p.SetProposal(s)
					for decided := false; !decided; {
						_, decided = p.StepOp(true)
					}
					l.Release(s)
					if b, ok := e.Read(BlockKey(SlotKey("log", s), 0)).(*Block); ok {
						blocks = append(blocks, held{b, *b})
					}
				}
				for s, h := range blocks {
					if *h.b != h.was || h.b.Val != s {
						e.Decide(fmt.Sprintf("slot %d's block read as %v now holds %v", s, h.was, *h.b))
						return
					}
				}
				if len(blocks) != slots {
					e.Decide(fmt.Sprintf("read %d blocks, want %d", len(blocks), slots))
					return
				}
				e.Decide("ok")
			}
		},
		Pattern:  fdet.FailureFree(0),
		MaxSteps: 50_000,
	}
	rt, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res := rt.Run(&sim.RoundRobin{}); res.Outputs[0] != "ok" {
		t.Fatalf("blocks: %v (reason %v)", res.Outputs[0], res.Reason)
	}
}

// releaseRecorder is a backend that records the key tables bound on it and
// the handles given back through it: a release of the slice a table was last
// bound from gives back that table's handle, recorded by bind order, and a
// release of any other keys is recorded as -1.
type releaseRecorder struct {
	bindRecorder
	released []int
}

func (r *releaseRecorder) Release(keys []string) {
	for i := len(r.bound) - 1; i >= 0; i-- {
		if b := r.bound[i]; len(b) == len(keys) && len(b) > 0 && &b[0] == &keys[0] {
			r.released = append(r.released, i)
			return
		}
	}
	r.released = append(r.released, -1)
}

// TestTruncateReleasesWindowsWhollyBelow: a view that has walked its window
// over slots 0–11 four at a time, proposing in the first and the third,
// releases on Truncate(min) exactly the windows that end at or below min —
// their decision table, and their block table, as the slice it was bound
// from or, where it bound none, as keys it formats (recorded as -1) — once,
// and never the window it is in. The next slide refills a released window's
// slice with the keys of the window it moves to.
func TestTruncateReleasesWindowsWhollyBelow(t *testing.T) {
	const window, nProps = 4, 2
	e := &releaseRecorder{}
	l := NewLog(e, "log", 0, nProps, window)
	if l.Window() != window {
		t.Fatalf("Window() = %d, want %d", l.Window(), window)
	}
	l.Proposer(0) // window 0: decisions and blocks
	l.Release(0)
	l.slide(4) // window 4: decisions only
	l.Proposer(8)
	l.Release(8) // window 8, the current one: decisions and blocks
	if got := len(e.tables); got != 5 {
		t.Fatalf("bound %d tables, want 5", got)
	}
	for _, step := range []struct {
		min  int
		want []int // bound tables, by bind order
	}{
		{3, nil},
		{4, []int{0, 1}},    // window 0's two tables
		{7, nil},            // window 4 ends at 8
		{4, nil},            // going back releases nothing twice
		{100, []int{2, -1}}, // window 4; window 8 is in use
		{100, nil},
	} {
		e.released = nil
		l.Truncate(step.min)
		if fmt.Sprint(e.released) != fmt.Sprint(step.want) {
			t.Fatalf("Truncate(%d) released tables %v, want %v", step.min, e.released, step.want)
		}
	}
	if len(e.tables[0]) != window || len(e.tables[1]) != window*nProps || e.tables[2][0] != DecKey(SlotKey("log", 4)) {
		t.Fatalf("window tables %v are not %d slots long from their base", e.tables[:3], window)
	}

	l.Proposer(12) // window 12 refills window 4's struct and slice, then binds blocks
	if got := len(e.tables); got != 7 {
		t.Fatalf("bound %d tables, want 7", got)
	}
	if &e.bound[5][0] != &e.bound[2][0] {
		t.Error("window 12's decision table was not cut into the slice window 4 released")
	}
	for i, key := range e.tables[5] {
		if want := DecKey(SlotKey("log", 12+i)); key != want {
			t.Fatalf("refilled decision key %d = %q, want %q", i, key, want)
		}
	}
	e.released = nil
	l.Truncate(100)
	if fmt.Sprint(e.released) != fmt.Sprint([]int{3, 4}) {
		t.Fatalf("Truncate(100) after the slide released tables %v, want window 8's [3 4]", e.released)
	}
}

// TestTruncateReleasesBlocksItNeverBound: on the sim backend, which binds
// keys, p0 proposes at slot 0 and stops there, as a crashed leader would;
// p1, which never proposed, sweeps the decision, moves on to the next window
// and truncates below it. Window 0 leaves the store whole, p0's block
// included: p1 releases the blocks it never bound as a table-bound view does.
func TestTruncateReleasesBlocksItNeverBound(t *testing.T) {
	const window = 4
	cfg := sim.Config{
		NC:     2,
		Inputs: vec.Of(0, 1),
		CBody: func(i int) sim.Body {
			return func(e sim.Ops) {
				l := NewLog(e, "log", i, 2, window)
				if i == 0 {
					p := l.Proposer(0)
					p.SetProposal("v")
					for decided := false; !decided; {
						_, decided = p.StepOp(true)
					}
					e.Decide("proposed")
					return
				}
				for l.Sweep(0, func(int, Value) bool { return true }) == 0 {
					e.AwaitEpoch(e.Epoch())
				}
				l.Decided(window) // moves the view on to window 1
				l.Truncate(window)
				e.Decide("truncated")
			}
		},
		Pattern:  fdet.FailureFree(0),
		MaxSteps: 10_000,
	}
	rt, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := rt.Run(&sim.RoundRobin{})
	if res.Outputs[0] != "proposed" || res.Outputs[1] != "truncated" {
		t.Fatalf("outputs %v (reason %v)", res.Outputs, res.Reason)
	}
	var left []string
	for k := range res.FinalStore {
		if strings.HasPrefix(k, SlotKey("log", 0)+"/") {
			left = append(left, k)
		}
	}
	if len(left) > 0 {
		t.Errorf("window 0 left %v in the store, want none", left)
	}
}

// passThrough is a decorator that embeds sim.Ops and adds nothing, as a
// tracing decorator does: a Log on it binds its windows by key.
type passThrough struct{ sim.Ops }

// TestLogTableWindowsAllocNothing: a table-bound log that truncates behind
// its frontier walks over a thousand windows, and the whole walk — every
// object the process allocates, counted once with runtime.MemStats — costs
// the slab chunks of its phase-2 blocks and a few objects more. One object
// per window, from a registry that grew or a map that rehashed as windows
// churn through it, is a thousand more.
func TestLogTableWindowsAllocNothing(t *testing.T) {
	const window, warm, windows = 8, 16, 1024
	var objects uint64
	var tabled bool
	cfg := native.Config{
		NC: 1, Inputs: vec.Of(1),
		CBody: func(int) sim.Body {
			return func(e sim.Ops) {
				l := NewLog(e, "log", 0, 3, window)
				tabled = l.tabs != nil
				next := 0
				walk := func(n int) {
					for end := next + n*window; next < end; {
						p := l.Proposer(next)
						p.SetProposal(7)
						for decided := false; !decided; {
							_, decided = p.StepOp(true)
						}
						next = l.Sweep(next, func(s int, _ Value) bool {
							l.Release(s)
							return true
						})
						l.Truncate(next)
					}
				}
				walk(warm)
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				walk(windows)
				runtime.ReadMemStats(&after)
				objects = after.Mallocs - before.Mallocs
				e.Decide(0)
			}
		},
		Pattern: fdet.FailureFree(0),
	}
	rt, err := native.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r := rt.Run(time.Minute); r.Reason != native.ReasonAllDecided {
		t.Fatalf("run ended %v", r.Reason)
	}
	if !tabled {
		t.Fatal("the log on a raw native Env binds by key")
	}
	chunks := windows*window/sim.SlabMax + 1
	t.Logf("%d windows: %d objects, against %d slab chunks", windows, objects, chunks)
	if want := uint64(2*chunks + 16); objects > want {
		t.Errorf("%d truncated windows allocated %d objects, want at most %d: the slab's chunks and a few", windows, objects, want)
	}
}

// TestLogPinnedWindowsCostTheirArrays: a leader and two followers walk one
// table-bound log that nobody truncates — a kv log behind a crashed replica
// — over 256 windows, so every window stays bound. Counted once with
// runtime.MemStats, everything the three processes allocate on the walk is
// the windows' arrays, which the native registry cuts from blocks of up to
// 16 arrays a length (two objects a block, so four for 16 windows' decision
// and block tables), the slab chunks of the leader's phase-2 blocks, and a
// few objects more for the whole walk, the registry's rings growing among
// them: a process that binds a window pays no handle for it, and one that
// moves past it no window struct. An array apiece, with its own struct,
// cost ≈ 4.1 objects a window.
func TestLogPinnedWindowsCostTheirArrays(t *testing.T) {
	const window, warm, windows = 8, 16, 256
	fronts := []string{"front/0", "front/1", "front/2"}
	var objects uint64
	var tabled [3]bool
	cfg := native.Config{
		NC: 3, Inputs: vec.Of(1, 2, 3),
		CBody: func(i int) sim.Body {
			return func(e sim.Ops) {
				l := NewLog(e, "log", i, 3, window)
				tabled[i] = l.tabs != nil
				fr := e.Bind(fronts)
				// await returns once every view has published a frontier
				// of at least end.
				await := func(end int) {
					for j := 0; j < len(fronts); {
						if f, _ := fr.ReadInt(j); f >= end {
							j++
						} else {
							e.AwaitEpoch(e.Epoch())
						}
					}
				}
				// walk applies every slot below end: the leader proposes 7
				// at each, and every view sweeps and publishes its frontier.
				next := 0
				walk := func(end int) {
					for next < end {
						seen := e.Epoch()
						if i == 0 {
							p := l.Proposer(next)
							p.SetProposal(7)
							for decided := false; !decided; {
								_, decided = p.StepOp(true)
							}
						}
						was := next
						next = l.Sweep(next, func(s int, _ Value) bool {
							l.Release(s)
							return true
						})
						fr.WriteInt(i, next)
						if next == was {
							e.AwaitEpoch(seen)
						}
					}
				}
				walk(warm * window)
				if i != 0 {
					walk((warm + windows) * window)
					e.Decide(0)
					return
				}
				await(warm * window)
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				walk((warm + windows) * window)
				await((warm + windows) * window)
				runtime.ReadMemStats(&after)
				objects = after.Mallocs - before.Mallocs
				e.Decide(0)
			}
		},
		Pattern: fdet.FailureFree(0),
	}
	rt, err := native.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r := rt.Run(time.Minute); r.Reason != native.ReasonAllDecided {
		t.Fatalf("run ended %v", r.Reason)
	}
	if tabled != [3]bool{true, true, true} {
		t.Fatalf("views bound by table: %v, want all three", tabled)
	}
	if held, want := rt.Registers(), (warm+windows)*window*4; held < want {
		t.Errorf("%d registers held, want at least %d: every window pinned", held, want)
	}
	chunks := windows*window/sim.SlabMax + 1
	t.Logf("%d pinned windows: %d objects, %.2f a window, against %d slab chunks", windows, objects, float64(objects)/windows, chunks)
	const block = 16 // windows a block of arrays serves, once blocks are full
	if want := uint64(4*(windows/block+1) + 2*chunks + 64); objects > want {
		t.Errorf("%d pinned windows allocated %d objects, want at most %d: four a block of windows, the slab's chunks and a few", windows, objects, want)
	}
}

// threeViews runs one leader and two followers of the log "log" on three
// native processes, each on the handle wrap makes of its Env. The leader
// proposes 10*s+1 at slot s; each view sweeps, publishes its frontier and
// truncates below the least frontier published, until slots slots are
// applied. It returns what each view applied and whether it bound by table.
func threeViews(t *testing.T, wrap func(sim.Ops) sim.Ops, window, slots int) (applied [3][]Value, tabled [3]bool) {
	t.Helper()
	fronts := []string{"front/0", "front/1", "front/2"}
	cfg := native.Config{
		NC: 3, Inputs: vec.Of(1, 2, 3),
		CBody: func(i int) sim.Body {
			return func(raw sim.Ops) {
				e := wrap(raw)
				l := NewLog(e, "log", i, 3, window)
				tabled[i] = l.tabs != nil
				fr := e.Bind(fronts)
				next, cursor := 0, 0
				for len(applied[i]) < slots {
					seen := e.Epoch()
					was := next
					next = l.Sweep(next, func(s int, v Value) bool {
						applied[i] = append(applied[i], v)
						l.Release(s)
						return true
					})
					fr.WriteInt(i, next)
					low := next
					for j := range fronts {
						if f, _ := fr.ReadInt(j); f < low {
							low = f
						}
					}
					l.Truncate(low)
					if i == 0 && cursor < slots {
						cursor = max(cursor, next)
						p := l.Proposer(cursor)
						p.SetProposal(10*cursor + 1)
						if _, ok := p.StepOp(true); ok {
							l.Release(cursor)
							cursor++
						}
						continue
					}
					if next == was {
						e.AwaitEpoch(seen)
					}
				}
				e.Decide(0)
			}
		},
		Pattern: fdet.FailureFree(0),
	}
	rt, err := native.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r := rt.Run(time.Minute); r.Reason != native.ReasonAllDecided {
		t.Fatalf("run ended %v", r.Reason)
	}
	return applied, tabled
}

// TestLogPathsAgree: a leader and two followers walk one log through ten
// truncated windows on a raw native Env, which binds the windows as tables,
// and again behind a pass-through decorator, which binds their keys. Every
// view applies every slot's decision in order, the same on both paths, and
// both paths release registers as the frontiers pass.
func TestLogPathsAgree(t *testing.T) {
	const window, slots = 8, 10 * 8
	var runs [2][3][]Value
	for k, path := range []struct {
		name   string
		wrap   func(sim.Ops) sim.Ops
		tabled bool
	}{
		{"raw", func(e sim.Ops) sim.Ops { return e }, true},
		{"decorated", func(e sim.Ops) sim.Ops { return passThrough{e} }, false},
	} {
		before := native.Telemetry.Snapshot()
		applied, tabled := threeViews(t, path.wrap, window, slots)
		released := native.Telemetry.Snapshot().Delta(before).Map()["reg_released"]
		for i := range applied {
			if tabled[i] != path.tabled {
				t.Errorf("%s: view %d binds by table = %v, want %v", path.name, i, tabled[i], path.tabled)
			}
			for s, v := range applied[i] {
				if v != 10*s+1 {
					t.Fatalf("%s: view %d applied %v at slot %d, want %d", path.name, i, v, s, 10*s+1)
				}
			}
		}
		if released < 8*window {
			t.Errorf("%s: %d registers released, want the decision tables of at least 8 windows", path.name, released)
		}
		runs[k] = applied
	}
	if fmt.Sprint(runs[0]) != fmt.Sprint(runs[1]) {
		t.Errorf("the paths decided differently:\nraw       %v\ndecorated %v", runs[0], runs[1])
	}
}

// TestLogTableWindowsAreAligned: a window bound as a table starts at a
// multiple of its length whatever slot moved it, so every view of the log
// names the same windows, and its tables hold a register per slot and one per
// proposer and slot.
func TestLogTableWindowsAreAligned(t *testing.T) {
	const nProps, slot = 3, 9_990
	var problems []string
	cfg := native.Config{
		NC: 1, Inputs: vec.Of(1),
		CBody: func(int) sim.Body {
			return func(e sim.Ops) {
				l := NewLog(e, "kv/log", 1, nProps, 0)
				l.Proposer(slot)
				w := l.win
				if base := slot - slot%logWindow; w.base != base {
					problems = append(problems, fmt.Sprintf("window starts at %d, want %d", w.base, base))
				}
				if w.dec.Len() != logWindow || w.blk.Len() != logWindow*nProps {
					problems = append(problems, fmt.Sprintf("tables of %d and %d registers, want %d and %d", w.dec.Len(), w.blk.Len(), logWindow, logWindow*nProps))
				}
				e.Decide(0)
			}
		},
		Pattern: fdet.FailureFree(0),
	}
	rt, err := native.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r := rt.Run(time.Minute); r.Reason != native.ReasonAllDecided {
		t.Fatalf("run ended %v", r.Reason)
	}
	if len(problems) > 0 {
		t.Fatal(problems[0])
	}
}

// TestLogMixedPathsFail: one log reached through a raw native Env and through
// a decorator in the same run would put the two kinds of view on different
// registers. The second kind of bind panics instead, in either order.
func TestLogMixedPathsFail(t *testing.T) {
	for _, order := range []struct {
		name          string
		first, second func(sim.Ops) sim.Ops
	}{
		{"table then key", func(e sim.Ops) sim.Ops { return e }, func(e sim.Ops) sim.Ops { return passThrough{e} }},
		{"key then table", func(e sim.Ops) sim.Ops { return passThrough{e} }, func(e sim.Ops) sim.Ops { return e }},
	} {
		var msg any
		cfg := native.Config{
			NC: 1, Inputs: vec.Of(1),
			CBody: func(int) sim.Body {
				return func(e sim.Ops) {
					NewLog(order.first(e), "log", 0, 1, 4).Proposer(0)
					func() {
						defer func() { msg = recover() }()
						NewLog(order.second(e), "log", 0, 1, 4).Sweep(0, func(int, Value) bool { return true })
					}()
					e.Decide(0)
				}
			},
			Pattern: fdet.FailureFree(0),
		}
		rt, err := native.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if r := rt.Run(time.Minute); r.Reason != native.ReasonAllDecided {
			t.Fatalf("%s: run ended %v", order.name, r.Reason)
		}
		if s, _ := msg.(string); !strings.Contains(s, `"log`) {
			t.Errorf("%s: the second kind of bind panicked with %v, want a message naming the log", order.name, msg)
		}
	}
}
