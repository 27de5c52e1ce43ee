package sim

// Direct unit tests for the scheduler combinators over hand-built Views —
// the composition pieces the paper's adversaries are assembled from. The
// runtime tests exercise them end to end; these pin the per-call contract:
// what is filtered, what falls through, and when a combinator stops a run.

import (
	"reflect"
	"testing"

	"wfadvice/internal/ids"
)

// testView builds a View with the given ready processes; every listed
// process counts as started.
func testView(step int, ready ...ids.Proc) *View {
	v := &View{
		Step:     step,
		Ready:    append([]ids.Proc(nil), ready...),
		Started:  make(map[ids.Proc]bool),
		DecidedC: make(map[int]bool),
		Pending:  make(map[ids.Proc]PendingOp),
		stepsOf:  make(map[ids.Proc]int),
	}
	for _, p := range ready {
		v.Started[p] = true
		v.stepsOf[p] = 1
	}
	return v
}

// capture records the view its Next is called with and picks the first
// ready process.
type capture struct {
	seen []ids.Proc
}

func (c *capture) Next(v *View) (ids.Proc, bool) {
	c.seen = append([]ids.Proc(nil), v.Ready...)
	if len(v.Ready) == 0 {
		return ids.Proc{}, false
	}
	return v.Ready[0], true
}

func TestKGateHoldsNewcomersAtTheGate(t *testing.T) {
	inner := &capture{}
	g := &KGate{K: 1, Inner: inner}

	// One participating undecided process: a not-yet-started C-process must
	// be held, an S-process passes through.
	v := testView(0, ids.C(0), ids.C(1), ids.S(0))
	v.Started[ids.C(1)] = false
	v.UndecidedParticipating = []int{0}
	p, ok := g.Next(v)
	if !ok || p != ids.C(0) {
		t.Fatalf("got %v/%v, want p1", p, ok)
	}
	if want := []ids.Proc{ids.C(0), ids.S(0)}; !reflect.DeepEqual(inner.seen, want) {
		t.Fatalf("inner saw %v, want %v (C(1) held at the gate)", inner.seen, want)
	}

	// Once p1 decided, the gate reopens for p2.
	v = testView(1, ids.C(1), ids.S(0))
	v.Started[ids.C(1)] = false
	v.DecidedC[0] = true
	p, ok = g.Next(v)
	if !ok || p != ids.C(1) {
		t.Fatalf("got %v/%v, want p2 admitted after p1 decided", p, ok)
	}

	// Every ready process held: the gate stops the run.
	v = testView(2, ids.C(1))
	v.Started[ids.C(1)] = false
	v.UndecidedParticipating = []int{0}
	if _, ok := g.Next(v); ok {
		t.Fatal("gate with only held processes must stop")
	}
}

func TestPauseWindowExcludesOnlyInsideWindow(t *testing.T) {
	inner := &capture{}
	s := &PauseWindow{Proc: ids.C(0), From: 10, To: 20, Inner: inner}

	if p, ok := s.Next(testView(9, ids.C(0), ids.C(1))); !ok || p != ids.C(0) {
		t.Fatalf("before window: got %v/%v, want p1", p, ok)
	}
	if p, ok := s.Next(testView(10, ids.C(0), ids.C(1))); !ok || p != ids.C(1) {
		t.Fatalf("inside window: got %v/%v, want p2", p, ok)
	}
	if want := []ids.Proc{ids.C(1)}; !reflect.DeepEqual(inner.seen, want) {
		t.Fatalf("inner saw %v, want %v", inner.seen, want)
	}
	if p, ok := s.Next(testView(20, ids.C(0), ids.C(1))); !ok || p != ids.C(0) {
		t.Fatalf("after window: got %v/%v, want p1", p, ok)
	}
	// Only the paused process is ready: the run stops rather than granting it.
	if _, ok := s.Next(testView(15, ids.C(0))); ok {
		t.Fatal("paused-only view must stop")
	}
}

func TestExcludeRemovesProcessesForever(t *testing.T) {
	s := &Exclude{Procs: []ids.Proc{ids.C(0), ids.S(1)}, Inner: &capture{}}
	p, ok := s.Next(testView(0, ids.C(0), ids.C(1), ids.S(1)))
	if !ok || p != ids.C(1) {
		t.Fatalf("got %v/%v, want p2", p, ok)
	}
	if _, ok := s.Next(testView(1, ids.C(0), ids.S(1))); ok {
		t.Fatal("view of only excluded processes must stop")
	}
}

func TestScriptedSkipsAndExhausts(t *testing.T) {
	s := &Scripted{Seq: []ids.Proc{ids.C(1), ids.C(0), ids.C(1)}}
	// C(1) not ready: the entry is skipped, not retried.
	if p, ok := s.Next(testView(0, ids.C(0))); !ok || p != ids.C(0) {
		t.Fatalf("got %v/%v, want p1 (skipping the unready p2 entry)", p, ok)
	}
	if p, ok := s.Next(testView(1, ids.C(0), ids.C(1))); !ok || p != ids.C(1) {
		t.Fatalf("got %v/%v, want p2", p, ok)
	}
	// Script exhausted and no tail: the run stops, and stays stopped.
	if _, ok := s.Next(testView(2, ids.C(0), ids.C(1))); ok {
		t.Fatal("exhausted script without tail must stop")
	}
	if _, ok := s.Next(testView(3, ids.C(0))); ok {
		t.Fatal("exhausted script must stay stopped")
	}
}

func TestScriptedFallsBackToTail(t *testing.T) {
	inner := &capture{}
	s := &Scripted{Seq: []ids.Proc{ids.C(1)}, Tail: inner}
	if p, ok := s.Next(testView(0, ids.C(0), ids.C(1))); !ok || p != ids.C(1) {
		t.Fatalf("got %v/%v, want the scripted p2", p, ok)
	}
	if p, ok := s.Next(testView(1, ids.C(0), ids.C(1))); !ok || p != ids.C(0) {
		t.Fatalf("tail: got %v/%v, want p1 from the tail scheduler", p, ok)
	}
	if len(inner.seen) == 0 {
		t.Fatal("tail scheduler never consulted")
	}
}

func TestReplayDivergesLoudly(t *testing.T) {
	s := &Replay{Seq: []ids.Proc{ids.C(0), ids.C(1)}}
	if p, ok := s.Next(testView(0, ids.C(0), ids.C(1))); !ok || p != ids.C(0) {
		t.Fatalf("got %v/%v, want p1", p, ok)
	}
	// Unlike Scripted, an unready expected process is a divergence, not a skip.
	if _, ok := s.Next(testView(1, ids.C(0))); ok {
		t.Fatal("replay must stop when the recorded process is not ready")
	}
	if s.Divergence == nil {
		t.Fatal("divergence not recorded")
	}
	if s.Replayed() != 1 {
		t.Fatalf("Replayed() = %d, want 1", s.Replayed())
	}

	ok2 := &Replay{Seq: []ids.Proc{ids.C(0)}}
	if p, ok := ok2.Next(testView(0, ids.C(0))); !ok || p != ids.C(0) {
		t.Fatalf("got %v/%v, want p1", p, ok)
	}
	if _, ok := ok2.Next(testView(1, ids.C(0))); ok {
		t.Fatal("exhausted replay must stop")
	}
	if ok2.Divergence != nil {
		t.Fatalf("clean exhaustion flagged as divergence: %v", ok2.Divergence)
	}
}

func TestStopWhenDecidedStopsAtZeroRemaining(t *testing.T) {
	s := &StopWhenDecided{Inner: &capture{}}
	v := testView(0, ids.C(0))
	v.cRemaining = 1
	if _, ok := s.Next(v); !ok {
		t.Fatal("undecided processes remain: must continue")
	}
	v.cRemaining = 0
	if _, ok := s.Next(v); ok {
		t.Fatal("all decided: must stop")
	}
}

func TestSortedStoreKeys(t *testing.T) {
	store := map[string]Value{"b/2": 1, "a/10": 2, "a/2": 3}
	want := []string{"a/10", "a/2", "b/2"}
	if got := SortedStoreKeys(store); !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

// TestBurstyFreezesAndStaysFair drives Bursty call by call and pins its
// contract: it picks from Ready; a process frozen going into a call is not
// picked by it (eight processes and freezes of at most six calls, one new
// freeze per call, leave an unfrozen one ready every time, so the fallback
// never hides a bad pick); freezes and multi-step bursts both occur; and
// every process keeps being scheduled, none waiting unboundedly.
func TestBurstyFreezesAndStaysFair(t *testing.T) {
	var procs []ids.Proc
	for i := 0; i < 4; i++ {
		procs = append(procs, ids.C(i), ids.S(i))
	}
	s := &Bursty{Seed: 1, Burst: 5, FreezeProb: 0.5, FreezeLen: 6}
	lastPick := make(map[ids.Proc]int)
	var prev ids.Proc
	bursts, freezes, maxWait := 0, 0, 0
	for call := 1; call <= 20_000; call++ {
		// One process drops out of the ready set now and then, as a
		// decided or crashed one does; it must not be picked while out.
		ready := procs
		if call%7 == 0 {
			ready = procs[1:]
		}
		thawAt := make(map[ids.Proc]int)
		for _, q := range ready {
			thawAt[q] = s.thawAt[q]
		}
		v := testView(call, ready...)
		p, ok := s.Next(v)
		if !ok || !v.IsReady(p) || thawAt[p] > call {
			t.Fatalf("call %d: picked %v (ok=%v) from ready set %v, frozen until call %d", call, p, ok, ready, thawAt[p])
		}
		if s.frozen(prev) {
			freezes++
		}
		if p == prev {
			bursts++
		}
		maxWait = max(maxWait, call-lastPick[p])
		prev, lastPick[p] = p, call
	}
	if freezes == 0 || bursts == 0 {
		t.Errorf("%d freezes and %d burst continuations in 20 000 calls, want both", freezes, bursts)
	}
	if limit := 100 * len(procs) * s.Burst; len(lastPick) != len(procs) || maxWait > limit {
		t.Errorf("%d of %d processes scheduled, longest wait %d calls (limit %d)", len(lastPick), len(procs), maxWait, limit)
	}

	// When every ready process is frozen the pick falls back to all of them:
	// a lone process under FreezeProb 1 still runs at every call.
	lone := &Bursty{Seed: 1, FreezeProb: 1, FreezeLen: 1000}
	for call := 1; call <= 100; call++ {
		if p, ok := lone.Next(testView(call, ids.C(0))); !ok || p != ids.C(0) {
			t.Fatalf("call %d: lone process not scheduled (%v, %v)", call, p, ok)
		}
	}
}
