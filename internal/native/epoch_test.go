package native

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wfadvice/internal/fdet"
	"wfadvice/internal/sim"
	"wfadvice/internal/vec"
)

// pastClock returns a clock whose model time already reads now and will not
// advance for the duration of a test (one model tick per hour), so the
// cooperative publication path can be driven deterministically with no
// background goroutine racing the assertions.
func pastClock(now fdet.Time) *clock {
	return &clock{
		start: time.Now().Add(-time.Duration(now)*time.Hour - 30*time.Minute),
		tick:  time.Hour,
	}
}

// TestNotifierEpochAndAwait: a stale epoch never blocks; a waiter on the
// current epoch waits for the wake generation and nothing else, so it stays
// parked until a bump — and inside a Runtime under event advice, where nothing writes and
// advice never moves, it is the advice loop's heartbeat that releases it.
func TestNotifierEpochAndAwait(t *testing.T) {
	n := newNotifier()
	seen := n.current()
	n.bump()
	if got := n.current(); got != seen+1 {
		t.Fatalf("epoch after bump: got %d, want %d", got, seen+1)
	}
	n.await(seen) // stale: returns at once, or the test hangs

	released := make(chan struct{})
	go func() {
		n.await(n.current())
		close(released)
	}()
	for n.waiters.Load() == 0 {
		runtime.Gosched()
	}
	select {
	case <-released:
		t.Fatal("await on the current epoch returned with no bump: something other than a release ended the park")
	case <-time.After(20 * awaitBackstop):
	}
	n.bump()
	<-released

	// The heart beats whether the loop has no transition to sleep to, ever
	// (nil history), or one an hour away (an opaque history names every tick).
	opaque := fdet.HistoryFunc(func(int, fdet.Time) any { return nil })
	for _, cfg := range []Config{{}, {History: opaque, Tick: time.Hour}} {
		cfg.NC, cfg.Inputs, cfg.Pattern, cfg.Advice = 1, vec.Of(1), fdet.FailureFree(0), AdviceEvent
		var parked time.Duration
		cfg.CBody = func(int) sim.Body {
			return func(e sim.Ops) {
				start := time.Now()
				e.AwaitEpoch(e.Epoch())
				parked = time.Since(start)
				e.Decide(1)
			}
		}
		park, _, timeout := awaitDeltas(t, cfg)
		if park != 1 || timeout != 1 {
			t.Errorf("heartbeat release: notify_park=%d notify_timeout=%d, want 1 and 1", park, timeout)
		}
		if parked > 50*awaitBackstop {
			t.Errorf("parked %v before the heartbeat, want about %v", parked, awaitBackstop)
		}
	}
}

// TestNotifierNoLostWakeups hammers the park protocol the poll loops use:
// sample the epoch, sweep the predicate, park if nothing changed. await has
// no timeout and no heart beats here, so if a bump could be lost the parked
// waiters outlive the writer and the watchdog fires. Run under -race this
// also checks the epoch/waiters/generation ordering argument in notifier's
// doc comment.
func TestNotifierNoLostWakeups(t *testing.T) {
	const (
		rounds  = 2000
		waiters = 4
	)
	n := newNotifier()
	var v atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < waiters; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var observed uint64
			for observed < rounds {
				seen := n.current() // before the sweep, like the poll loops
				cur := v.Load()
				if cur > observed {
					observed = cur
					continue
				}
				n.await(seen)
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			v.Add(1)
			n.bump()
		}
	}()
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		t.Fatal("lost wakeup: a waiter is still parked after the writer finished")
	}
}

// TestParkAndPublishAllocs pins what waiting and advising cost the heap:
// nothing. A park → bump → wake cycle moves the wake generation and broadcasts
// a condition variable — no channel minted per wake, no timer per park. A
// publication of a noisy Ω history over NS modules stores NS pointers into the
// static table of small advice boxes, and the noise comes from a pooled
// generator, not a fresh 4.9 KB source (two objects) per module. Under the
// race detector sync.Pool drops one Put in four on purpose, so a quarter of
// the draws rebuild their generator there and the count reads 0.5 × NS; the
// bound sits between that and the NS of a box per module.
func TestParkAndPublishAllocs(t *testing.T) {
	n := newNotifier()
	var quit atomic.Bool
	woke := make(chan struct{})
	go func() {
		for !quit.Load() {
			n.await(n.current())
			woke <- struct{}{}
		}
	}()
	cycle := func() {
		for n.waiters.Load() == 0 {
			runtime.Gosched()
		}
		n.bump()
		<-woke
	}
	if got := testing.AllocsPerRun(200, cycle); got != 0 {
		t.Errorf("park → bump → wake: %v allocs per cycle, want 0", got)
	}
	quit.Store(true)
	cycle()

	const ns = 4
	p := fdet.FailureFree(ns)
	s := newFDService(pastClock(0), fdet.Omega{}.History(p, 1<<30, 3), ns, newNotifier())
	tm := fdet.Time(0)
	if got := testing.AllocsPerRun(200, func() {
		s.publishLocked(tm)
		tm++
	}); got >= ns {
		t.Errorf("publication over %d noisy modules: %v allocs, want 0", ns, got)
	}
}

// TestEventAdviceCooperativePublish drives the query-path publication hook
// with no background goroutine at all: the clock already reads a
// post-stabilization time, so the first advice query itself must publish the
// stabilized leader, drain the transition queue, and bump the notifier.
func TestEventAdviceCooperativePublish(t *testing.T) {
	const stabilize = 5
	p := fdet.NewPattern(3, nil)
	hist := fdet.Omega{}.History(p, stabilize, 42)
	notify := newNotifier()
	s := newFDService(pastClock(10), hist, p.N, notify)
	s.publishLocked(0) // what startService does, minus the waker goroutine
	if nt := s.nextT.Load(); nt != 1 {
		t.Fatalf("after tick-0 publish nextT = %d, want 1 (noisy history)", nt)
	}
	epoch := notify.current()

	leader := p.MinCorrect()
	for i := 0; i < p.N; i++ {
		if got := s.advice(i); got != leader {
			t.Fatalf("advice(%d) after stabilization = %v, want leader %v", i, got, leader)
		}
	}
	if nt := s.nextT.Load(); nt != noTransition {
		t.Fatalf("post-stabilization nextT = %d, want noTransition", nt)
	}
	if notify.current() == epoch {
		t.Fatal("cooperative publication did not bump the notifier")
	}
	// Re-querying past the final transition publishes nothing further.
	epoch = notify.current()
	_ = s.advice(0)
	if notify.current() != epoch {
		t.Fatal("idle query bumped the notifier with no transition due")
	}
}

// TestEventWakerPublishesUnqueried exercises the background waker: with every
// would-be querier silent (the all-parked case), the waker alone must walk the
// transition queue to the stabilized advice. The cells are read directly so no
// query triggers a cooperative publish.
func TestEventWakerPublishesUnqueried(t *testing.T) {
	const stabilize = 3
	p := fdet.NewPattern(2, nil)
	hist := fdet.Omega{}.History(p, stabilize, 7)
	notify := newNotifier()
	c := &clock{start: time.Now(), tick: time.Millisecond}
	s := newFDService(c, hist, p.N, notify)
	s.startService(true)
	defer s.stopService()

	leader := p.MinCorrect()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if s.nextT.Load() == noTransition {
			if p := s.cells[0].v.Load(); p == nil || *p != leader {
				t.Fatalf("converged cell holds %v, want leader %v", p, leader)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("waker never drained the transition queue: nextT=%d", s.nextT.Load())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestOpaqueHistoryPublishesEveryTick: a bare HistoryFunc says nothing about
// when its output moves, so its conservative enumerator names every tick and
// the service publishes along the clock — under either wait. The advice served
// is the history sampled along an increasing sequence of times: it never goes
// back, and it gets somewhere.
func TestOpaqueHistoryPublishesEveryTick(t *testing.T) {
	hist := fdet.HistoryFunc(func(i int, t fdet.Time) any { return t })
	for _, mode := range []AdviceMode{AdviceTick, AdviceEvent} {
		var last int
		rt, err := New(Config{
			NC: 1, NS: 1, Inputs: vec.Of(1), Pattern: fdet.FailureFree(1),
			History: hist, Tick: time.Millisecond, Advice: mode,
			SBody: func(int) sim.Body {
				return func(e sim.Ops) {
					for last < 3 {
						seen := e.Epoch()
						v, _ := e.QueryFD().(int)
						if v < last {
							t.Errorf("%v wait: advice went back from %d to %d", mode, last, v)
						}
						last = v
						e.AwaitEpoch(seen)
					}
					e.Write("done", 1)
				}
			},
			CBody: func(int) sim.Body {
				return func(e sim.Ops) {
					for {
						seen := e.Epoch()
						if e.Read("done") != nil {
							e.Decide(1)
							return
						}
						e.AwaitEpoch(seen)
					}
				}
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if res := rt.Run(5 * time.Second); res.Reason != ReasonAllDecided {
			t.Fatalf("%v wait: run ended %v with advice stuck at %d, want it to reach 3", mode, res.Reason, last)
		}
	}
}

// TestConvergedAdviceIsPublishedOnce: publications follow the history's
// transitions, not the clock. LiveOmega is noisy for its first stabilize
// ticks and afterwards moves only when the acting leader crashes, so a run of
// hundreds of ticks holds at most stabilize + crashes publications after
// tick 0, whoever performs them — and the trace ring one advice event each.
func TestConvergedAdviceIsPublishedOnce(t *testing.T) {
	const (
		stabilize = 10
		crashAt   = 50
		ticks     = 200
		tick      = 100 * time.Microsecond
	)
	pat := fdet.NewPattern(3, map[int]fdet.Time{0: crashAt})
	tracer := NewTracer(1 << 10)
	before := Telemetry.Snapshot()
	rt, err := New(Config{
		NC: 1, NS: 3, Inputs: vec.Of(1), Pattern: pat, Tick: tick,
		History: fdet.LiveOmega{}.History(pat, stabilize, 1),
		Tracer:  tracer,
		SBody: func(int) sim.Body {
			return func(e sim.Ops) {
				for {
					e.QueryFD()
					e.AwaitEpoch(e.Epoch())
				}
			}
		},
		CBody: func(int) sim.Body {
			return func(e sim.Ops) {
				for start := time.Now(); time.Since(start) < ticks*tick; {
					e.AwaitEpoch(e.Epoch())
				}
				e.Decide(1)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	res := rt.Run(10 * time.Second)
	if res.Reason != ReasonAllDecided || res.Ticks < ticks {
		t.Fatalf("run ended %v after %d ticks, want all-decided after at least %d", res.Reason, res.Ticks, ticks)
	}
	d := Telemetry.Snapshot().Delta(before)
	const budget = stabilize + 1 // every tick while noisy, then the crash time
	if pubs := d.Get(cAdvicePubCoop) + d.Get(cAdvicePubWaker); pubs < 1 || pubs > budget {
		t.Errorf("%d publications over %d ticks, want 1..%d", pubs, res.Ticks, budget)
	}
	events := 0
	for _, ev := range tracer.Dump().Events {
		if ev.Kind == traceKindNames[TraceAdvice] {
			events++
		}
	}
	if events > budget+1 {
		t.Errorf("%d advice events in the trace, want ≤ %d (tick 0 and one per publication)", events, budget+1)
	}
}

// TestConvergedServiceIsIdle: past its history's last transition, and with
// nobody parked to owe a heartbeat to, the service does nothing at all — no
// publication, no allocation — however many ticks go by.
func TestConvergedServiceIsIdle(t *testing.T) {
	p := fdet.FailureFree(3)
	notify := newNotifier()
	c := &clock{start: time.Now(), tick: DefaultTick}
	s := newFDService(c, fdet.Omega{}.History(p, 0, 1), p.N, notify)
	s.startService(false)
	defer s.stopService()
	epoch := notify.current()
	if got := testing.AllocsPerRun(1, func() { time.Sleep(20 * time.Millisecond) }); got != 0 {
		t.Errorf("idle service allocated %v objects per 20 ms, want 0", got)
	}
	if notify.current() != epoch {
		t.Errorf("idle service published %d times over a converged history, want 0", notify.current()-epoch)
	}
	if got := s.advice(0); got != p.MinCorrect() {
		t.Errorf("converged advice = %v, want leader %d", got, p.MinCorrect())
	}
}

// TestEventNilHistory: the trivial service (no detector) has no transitions
// at all — advice is ⊥ and the transition queue starts empty.
func TestEventNilHistory(t *testing.T) {
	s := newFDService(pastClock(10), nil, 2, newNotifier())
	s.publishLocked(0)
	if nt := s.nextT.Load(); nt != noTransition {
		t.Fatalf("nil history nextT = %d, want noTransition", nt)
	}
	if got := s.advice(0); got != nil {
		t.Fatalf("trivial advice = %v, want nil", got)
	}
}

// awaitDeltas runs cfg to completion and returns how far the notifier's
// park/wake/timeout counters moved during the run.
func awaitDeltas(t *testing.T, cfg Config) (park, wake, timeout int64) {
	t.Helper()
	before := Telemetry.Snapshot()
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res := rt.Run(10 * time.Second); res.Reason != ReasonAllDecided {
		t.Fatalf("run ended %v, want all-decided", res.Reason)
	}
	d := Telemetry.Snapshot().Delta(before)
	return d.Get(cNotifyPark), d.Get(cNotifyWake), d.Get(cNotifyTimeout)
}

// TestAwaitEpochTickAdviceYields: under tick advice the epoch carries no
// register writes, so the wait must not park on it. With the tick stretched
// to an hour nothing bumps the epoch after start-up, and AwaitEpoch on the
// current epoch still returns every time — without ever entering the
// notifier.
func TestAwaitEpochTickAdviceYields(t *testing.T) {
	const waits = 1000
	moved := false
	park, _, timeout := awaitDeltas(t, Config{
		NC: 1, Inputs: vec.Of(1), Pattern: fdet.FailureFree(0), Tick: time.Hour,
		CBody: func(int) sim.Body {
			return func(e sim.Ops) {
				seen := e.Epoch()
				for i := 0; i < waits; i++ {
					e.AwaitEpoch(seen)
				}
				moved = e.Epoch() != seen
				e.Decide(1)
			}
		},
	})
	if moved {
		t.Error("the epoch moved during the waits: the test no longer shows a return without a bump")
	}
	if park != 0 || timeout != 0 {
		t.Errorf("tick-advice waits entered the notifier: notify_park=%d notify_timeout=%d, want 0 and 0", park, timeout)
	}
}

// TestAwaitEpochEventAdviceParksUntilWrite: under event advice the wait is
// the notifier park, and another process's register write is what ends it.
// The writer holds its write until the poller is observably parked; a lost
// wakeup would leave the heartbeat as the only way out, so an attempt passes
// only with a wake and no timeout. The heart beats every millisecond, so a
// descheduled writer can lose an attempt to it on a loaded box — hence a few
// attempts, of which one clean one suffices.
func TestAwaitEpochEventAdviceParksUntilWrite(t *testing.T) {
	var park, wake, timeout int64
	for attempt := 0; attempt < 20; attempt++ {
		before := Telemetry.Snapshot().Get(cNotifyPark)
		park, wake, timeout = awaitDeltas(t, Config{
			NC: 2, Inputs: vec.Of(1, 2), Pattern: fdet.FailureFree(0), Advice: AdviceEvent,
			CBody: func(i int) sim.Body {
				if i == 1 {
					return func(e sim.Ops) {
						for Telemetry.Snapshot().Get(cNotifyPark) == before {
							runtime.Gosched()
						}
						e.Write("flag", 1)
						e.Decide(2)
					}
				}
				return func(e sim.Ops) {
					for {
						seen := e.Epoch()
						if e.Read("flag") != nil {
							e.Decide(1)
							return
						}
						e.AwaitEpoch(seen)
					}
				}
			},
		})
		if park < 1 {
			t.Fatalf("event-advice wait never parked: notify_park=%d", park)
		}
		if wake >= 1 && timeout == 0 {
			return
		}
	}
	t.Fatalf("no clean attempt in 20: last had notify_park=%d notify_wake=%d notify_timeout=%d, want a wake and no timeout", park, wake, timeout)
}
