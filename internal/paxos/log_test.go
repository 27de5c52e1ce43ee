package paxos

import (
	"fmt"
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
// windows and checks Sweep collects them all, in order, with the frontier
// landing on the first undecided slot.
func TestLogSweepCrossesWindows(t *testing.T) {
	const slots = 150 // > 2*logWindow
	cfg := sim.Config{
		NC:     1,
		Inputs: vec.Vector{0},
		CBody: func(i int) sim.Body {
			return func(e sim.Ops) {
				for s := 0; s < slots; s++ {
					e.Write(DecKey(SlotKey("log", s)), decRec{V: s})
				}
				l := NewLog(e, "log", 0, 1, 0)
				var got []Value
				next := l.Sweep(0, func(s int, v Value) bool {
					got = append(got, v)
					return true
				})
				if next != slots {
					e.Decide(fmt.Sprintf("frontier %d, want %d", next, slots))
					return
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
				e.Write(DecKey(SlotKey("log", slots)), decRec{V: slots})
				e.Write(DecKey(SlotKey("log", slots+1)), decRec{V: slots + 1})
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
	const nProps, base = 3, 9_990 // the slot numbers gain a digit inside the window
	e := &bindRecorder{}
	l := NewLog(e, "kv/log", 1, nProps, 0)
	l.Proposer(base) // moves the window to the slot it is asked for
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

// bindRecorder is a backend that only records the key tables bound on it.
type bindRecorder struct {
	sim.Ops
	tables [][]string
}

func (b *bindRecorder) Bind(keys []string) sim.Regs {
	b.tables = append(b.tables, keys)
	return nil
}

// TestLogSlotAllocs is the allocation guard on the log's per-slot path, on
// the native backend: once a window is bound, minting a slot's proposer
// allocates nothing, and a whole slot cycle — propose, decide, sweep,
// release, with the window slides amortised in — costs its protocol writes
// (two blocks and a decision, boxed twice each) and little else.
func TestLogSlotAllocs(t *testing.T) {
	var cycle, mint float64
	cfg := native.Config{
		NC: 1, Inputs: vec.Of(1),
		CBody: func(int) sim.Body {
			return func(e sim.Ops) {
				l := NewLog(e, "log", 0, 3, 0)
				next := 0
				drive := func() {
					p := l.Proposer(next)
					p.SetProposal(7) // the runtime boxes small ints statically
					for decided := false; !decided; {
						_, decided = p.StepOp(true)
					}
					next = l.Sweep(next, func(s int, _ Value) bool {
						l.Release(s)
						return true
					})
				}
				drive() // the first slot pays for the Log's own first growth
				cycle = testing.AllocsPerRun(4*logWindow, drive)
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
	if cycle > 10 {
		t.Errorf("slot cycle: %v allocs, want ≤ 10", cycle)
	}
	if mint != 0 {
		t.Errorf("Log.Proposer inside a bound window: %v allocs, want 0", mint)
	}
}

// releaseRecorder is a backend that records the key tables bound on it and
// released through it.
type releaseRecorder struct {
	bindRecorder
	released [][]string
}

func (r *releaseRecorder) Release(keys []string) { r.released = append(r.released, keys) }

// TestTruncateReleasesWindowsWhollyBelow: a view that has walked its window
// over slots 0–11 four at a time, proposing in the first and the third,
// releases on Truncate(min) exactly the windows that end at or below min —
// their decision table, and their block table where it bound one — once, and
// never the window it is in.
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
	keysOf := func(tables [][]string) string { return fmt.Sprint(tables) }
	for _, step := range []struct {
		min  int
		want [][]string
	}{
		{3, nil},
		{4, [][]string{e.tables[0], e.tables[1]}}, // window 0's two tables
		{7, nil},                       // window 4 ends at 8
		{4, nil},                       // going back releases nothing twice
		{100, [][]string{e.tables[2]}}, // window 4; window 8 is in use
		{100, nil},
	} {
		e.released = nil
		l.Truncate(step.min)
		if keysOf(e.released) != keysOf(step.want) {
			t.Fatalf("Truncate(%d) released %v, want %v", step.min, e.released, step.want)
		}
	}
	if len(e.tables[0]) != window || len(e.tables[1]) != window*nProps || e.tables[2][0] != DecKey(SlotKey("log", 4)) {
		t.Fatalf("window tables %v are not %d slots long from their base", e.tables[:3], window)
	}
}
