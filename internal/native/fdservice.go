package native

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"wfadvice/internal/fdet"
	"wfadvice/internal/obs"
	"wfadvice/internal/sim"
)

// AdviceMode selects how a process waits between two unsuccessful sweeps
// (Env.AwaitEpoch). It does not touch how advice is published: the
// failure-detector service serves every history the same way (see fdService).
type AdviceMode int

const (
	// AdviceTick waits by yielding: AwaitEpoch is one runtime.Gosched. The
	// change epoch then carries advice publications only, nobody parks on
	// it, and no heartbeat runs.
	AdviceTick AdviceMode = iota
	// AdviceEvent waits by parking on the change epoch: every register write
	// and every advice publication bumps it, so a parked process wakes
	// exactly when something it could be polling for moved — or on the
	// advice service's heartbeat, which stands in for the deadlines the
	// epoch does not carry.
	AdviceEvent
)

// ParseAdviceMode resolves the -advice flag values.
func ParseAdviceMode(s string) (AdviceMode, error) {
	switch s {
	case "", "tick":
		return AdviceTick, nil
	case "event":
		return AdviceEvent, nil
	default:
		return 0, fmt.Errorf("native: unknown advice mode %q (valid: tick, event)", s)
	}
}

// String implements fmt.Stringer.
func (m AdviceMode) String() string {
	if m == AdviceEvent {
		return "event"
	}
	return "tick"
}

// clock maps the monotonic wall clock onto the model's discrete time T = N:
// one fdet.Time unit per tick. start is written once before any process
// goroutine exists and is read-only afterwards.
type clock struct {
	start time.Time
	tick  time.Duration
}

func (c *clock) now() fdet.Time       { return int(time.Since(c.start) / c.tick) }
func (c *clock) since() time.Duration { return time.Since(c.start) }

// until returns the wall-clock duration from now until model time t begins
// (non-positive if t has already started).
func (c *clock) until(t fdet.Time) time.Duration {
	return time.Duration(t)*c.tick - time.Since(c.start)
}

// adviceCell holds the latest published advice for one S-process module,
// padded so modules on different cores never false-share.
type adviceCell struct {
	_ pad
	v atomic.Pointer[sim.Value]
	_ pad
}

// smallAdvice backs the advice boxes of the values detectors publish most:
// a leader index, a process count. The box of x is &smallAdvice[x], shared by
// every service and never written, so publishing one allocates nothing.
var smallAdvice = func() (t [64]sim.Value) {
	for x := range t {
		t[x] = x
	}
	return t
}()

// adviceBox returns the box an advice cell holds for v.
func adviceBox(v sim.Value) *sim.Value {
	if x, ok := v.(int); ok && 0 <= x && x < len(smallAdvice) {
		return &smallAdvice[x]
	}
	p := new(sim.Value)
	*p = v
	return p
}

// noTransition marks an empty transition queue in fdService.nextT.
const noTransition = math.MaxInt64

// fdService is the live failure-detector service. Histories are pure
// functions of (module, time); serving them against the monotonic clock is
// what turns the model's H(q_i, τ) into advice that moves with real time —
// Ω and vector-Ωk leaders stabilize, ¬Ωk windows rotate, a live-Ω leader
// follows the crashes, all while the algorithms run at hardware speed. A
// QueryFD on the hot path is one atomic load of the module's cell, and over
// a converged history one more of nextT.
//
// Advice is published transition by transition: the history enumerates the
// times its output may move (fdet.History.NextTransition), the model time of
// the next one sits in nextT, and whoever notices its deadline has passed
// evaluates the history into the cells. The service is driven from both ends
// so a starved goroutine can never freeze advice. Every advice query checks
// nextT against the clock and, if the deadline has passed, performs the
// publication itself — so the spinning processes that monopolize a saturated
// box advance the advice clock as a side effect of querying it. The
// background loop sleeps until the next deadline and publishes too, covering
// the case where nobody queries (that is what lets a parked poller be woken
// by a stabilization it is waiting for). Publications may skip enumerated
// transitions when the service falls behind; the advice actually served is
// then the history sampled along an increasing sequence of times, which is
// all a process querying H(q_i, τ) at its own pace can observe anyway, and
// the final transition of a converging history is never skipped — after it,
// nextT is empty and the last publication evaluated the history at a
// post-convergence time.
type fdService struct {
	clock  *clock
	hist   fdet.History // nil is the trivial history: ⊥ forever
	cells  []adviceCell
	notify *notifier

	// The background loop is a goroutine per run: startService spawns it from
	// loop, the func value of waker made once (a go statement on a stored
	// func() allocates nothing, one on a method call or a capturing literal a
	// closure per spawn), and stopService joins it before the run returns.
	// stop and done carry one token per run each, so the service holds no
	// channel state between runs, and timer is re-armed, never rebuilt.
	loop      func()
	heartbeat bool // this run's processes park and are owed the heartbeat
	stop      chan struct{}
	done      chan struct{}
	timer     *time.Timer

	// Observability. m counts publications by who performed them; tracer
	// (nil unless the run is traced) records each publication as a
	// TraceAdvice event stamped with the model time it served.
	m      obs.Handle
	tracer *obs.Tracer
	runID  int64

	nextT atomic.Int64 // model time of the next unpublished transition
	pubMu sync.Mutex   // serializes publications; nextT moves under it
}

func newFDService(c *clock, hist fdet.History, n int, notify *notifier) *fdService {
	s := &fdService{
		clock:  c,
		notify: notify,
		stop:   make(chan struct{}, 1),
		done:   make(chan struct{}, 1),
		timer:  time.NewTimer(awaitBackstop),
		m:      Telemetry.Handle(),
	}
	s.timer.Stop()
	s.loop = s.waker
	s.reset(hist, n)
	return s
}

// reset points a stopped service at the history of its next run: no module
// has any advice (a nil history publishes none, so what the last run saw must
// not survive here) and no transition is pending until startService publishes
// tick 0. The cells are kept when there are still n of them.
func (s *fdService) reset(hist fdet.History, n int) {
	s.hist = hist
	if len(s.cells) != n {
		s.cells = make([]adviceCell, n)
	}
	for i := range s.cells {
		s.cells[i].v.Store(nil)
	}
	s.nextT.Store(noTransition)
}

// startService publishes the tick-0 advice synchronously (so the first query
// of every module is already served) and starts the background loop, which
// owes parked processes the heartbeat when processes park at all.
func (s *fdService) startService(heartbeat bool) {
	s.publishLocked(0)
	s.heartbeat = heartbeat
	go s.loop()
}

// stopService ends the background loop and returns once it has exited.
func (s *fdService) stopService() {
	s.stop <- struct{}{}
	<-s.done
}

// waker is the background loop, the one holder of a timer in the runtime: it
// sleeps to the earlier of the next transition's wall deadline and the
// heartbeat, on one timer re-armed every turn. It publishes for the quiescent
// case — when every process is parked, someone must still publish the
// stabilization the pollers are waiting on; under load the queriers usually
// get there first via maybeAdvance and the waker finds nothing left to do.
// The heartbeat outlives the last transition: deadlines the notifier does not
// carry keep arriving after advice converged. Without a heartbeat and past
// the last transition the loop only waits to be stopped.
func (s *fdService) waker() {
	defer func() {
		s.timer.Stop()
		s.done <- struct{}{}
	}()
	beat := time.Now()
	for {
		d := time.Duration(math.MaxInt64)
		if s.heartbeat {
			d = awaitBackstop - time.Since(beat)
			if d <= 0 {
				s.notify.release()
				beat, d = time.Now(), awaitBackstop
			}
		}
		if nt := s.nextT.Load(); nt != noTransition {
			u := s.clock.until(fdet.Time(nt))
			if u <= 0 {
				// Behind schedule. A history that transitions every tick (a
				// flapping vector position, a rotating ¬Ωk window) can keep the
				// next deadline perpetually in the past on a loaded box, so
				// publishing in a tight catch-up loop here would monopolize a
				// small machine and never reach the stop select below. Publish
				// once at the current time (advance skips the missed
				// transitions) and re-arm at tick cadence: the waker's cost is
				// then capped at one publication per tick, it stays stoppable,
				// and queriers still get fresher advice cooperatively.
				s.advance(true)
				u = s.clock.tick
			}
			d = min(d, u)
		}
		s.timer.Reset(d)
		select {
		case <-s.stop:
			return
		case <-s.timer.C:
		}
	}
}

// maybeAdvance is the cooperative publication hook on the query path: one
// atomic load once the history has converged, one more clock read while a
// transition is pending, and only when its deadline has passed does the
// caller publish it itself.
func (s *fdService) maybeAdvance() {
	nt := s.nextT.Load()
	if nt == noTransition || int64(s.clock.now()) < nt {
		return
	}
	s.advance(false)
}

// advance publishes the advice at the current model time if a transition's
// deadline has passed, schedules the next one, and wakes parked pollers.
// byWaker attributes the publication: the background deadline sleeper vs a
// cooperative querier that found the deadline passed.
func (s *fdService) advance(byWaker bool) {
	s.pubMu.Lock()
	now := int64(s.clock.now())
	if now >= s.nextT.Load() {
		s.publishLocked(fdet.Time(now))
		if byWaker {
			s.m.Inc(cAdvicePubWaker)
		} else {
			s.m.Inc(cAdvicePubCoop)
		}
	}
	s.pubMu.Unlock()
}

// publishLocked evaluates the history at model time t into every advice
// cell, advances nextT past t, and bumps the notifier. Callers hold pubMu
// (or, for the synchronous tick-0 publication, run before any concurrency).
func (s *fdService) publishLocked(t fdet.Time) {
	nt := int64(noTransition)
	if s.hist != nil {
		for i := range s.cells {
			s.cells[i].v.Store(adviceBox(s.hist.Query(i, t)))
		}
		if next, ok := s.hist.NextTransition(t); ok {
			nt = int64(next)
		}
	}
	s.nextT.Store(nt)
	s.tracer.Emit(TraceAdvice, 0, s.runID, int64(t))
	s.notify.bump()
}

// advice returns the latest published advice for module i, first letting the
// caller publish any transition whose deadline has passed.
func (s *fdService) advice(i int) sim.Value {
	if i < 0 || i >= len(s.cells) {
		return nil
	}
	s.maybeAdvance()
	if p := s.cells[i].v.Load(); p != nil {
		return *p
	}
	return nil
}
