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

// AdviceMode selects how the failure-detector service turns a history into
// live advice.
type AdviceMode int

const (
	// AdviceTick re-samples the history once per clock tick on a background
	// ticker. Robust and history-agnostic, but advice freshness then depends
	// on the sampler goroutine getting scheduled — on a saturated box the
	// sampler can starve behind spinning process goroutines and advice
	// freezes for whole preemption quanta.
	AdviceTick AdviceMode = iota
	// AdviceEvent publishes each enumerated history transition
	// (fdet.TransitionHistory) when its deadline passes, cooperatively from
	// the queriers themselves, and bumps the runtime notifier so parked
	// pollers wake exactly when advice moves. Histories that cannot
	// enumerate transitions fall back to tick sampling (with notifier bumps
	// per sample).
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

// adviceCell holds the latest sampled advice for one S-process module,
// padded so modules on different cores never false-share.
type adviceCell struct {
	_ pad
	v atomic.Pointer[sim.Value]
	_ pad
}

// noTransition marks an empty transition queue in fdService.nextT.
const noTransition = math.MaxInt64

// fdService is the live failure-detector service. Histories are pure
// functions of (module, time); serving them against the monotonic clock is
// what turns the model's H(q_i, τ) into advice that moves with real time —
// Ω and vector-Ωk leaders stabilize, ¬Ωk windows rotate, ◇P suspicion sets
// converge, all while the algorithms run at hardware speed. A QueryFD on the
// hot path is a single atomic load of the module's cell either way; the two
// modes differ in who refreshes the cells and when (see AdviceMode).
//
// In event mode the service is driven from both ends so a starved goroutine
// can never freeze advice. The next enumerated transition's model time sits
// in nextT; every advice query checks it against the clock (one extra atomic
// load) and, if the deadline has passed, performs the publication itself —
// so the spinning processes that monopolize a saturated box advance the
// advice clock as a side effect of querying it. A background waker sleeps
// until the next deadline and publishes too, covering the case where every
// process is parked (that is what lets a parked poller be woken by a
// stabilization it is waiting for). Publications may skip enumerated
// transitions when the service falls behind; the advice actually served is
// then the history sampled along an increasing sequence of times, which is
// exactly what tick sampling serves as well, and the final transition of a
// converging history is never skipped — after it, nextT is empty and the
// last publication evaluated the history at a post-convergence time.
type fdService struct {
	clock *clock
	hist  fdet.History
	cells []adviceCell
	stop  chan struct{}
	done  chan struct{}

	// Observability. m counts publications by who performed them; tracer
	// (nil unless the run is traced) records each publication as a
	// TraceAdvice event stamped with the model time it served.
	m      obs.Handle
	tracer *obs.Tracer
	runID  int64

	// Event mode. th is nil when the history cannot enumerate transitions
	// (the service then runs the tick fallback even if event was requested).
	// beats is set whenever event advice was requested: processes park then,
	// and the background loop owes them the heartbeat (notifier.release).
	beats  bool
	event  bool
	th     fdet.TransitionHistory
	notify *notifier
	nextT  atomic.Int64 // model time of the next unpublished transition
	pubMu  sync.Mutex   // serializes publications; nextT moves under it
}

func newFDService(c *clock, hist fdet.History, n int, mode AdviceMode, notify *notifier) *fdService {
	s := &fdService{
		clock:  c,
		hist:   hist,
		cells:  make([]adviceCell, n),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
		notify: notify,
		m:      newMetricsHandle(),
	}
	if mode == AdviceEvent {
		s.beats = true
		if th, ok := hist.(fdet.TransitionHistory); ok {
			s.event = true
			s.th = th
		} else if hist == nil {
			// The trivial history is constant: event mode with no
			// transitions at all.
			s.event = true
		}
	}
	return s
}

// startService publishes the tick-0 advice synchronously (so the first query
// of every module is already served) and starts the mode's background
// goroutine.
func (s *fdService) startService() {
	if s.event {
		s.publishLocked(0)
		s.m.Inc(cAdvicePubTick) // the synchronous tick-0 publication
		go s.runEvent()
		return
	}
	now := s.clock.now()
	s.sample(now)
	go s.run(now)
}

func (s *fdService) stopService() {
	close(s.stop)
	<-s.done
}

// run is the tick-mode sampler loop: one sample per ticker firing, sampled
// being the tick startService published. As the event-mode fallback for a
// history that cannot enumerate its transitions it also carries the
// heartbeat: the ticker then fires at least once per awaitBackstop, and a
// firing inside a tick already sampled releases the parked processes instead
// of publishing the same advice again (a sample's own bump wakes them
// otherwise).
func (s *fdService) run(sampled fdet.Time) {
	defer close(s.done)
	period := s.clock.tick
	if s.beats {
		period = min(period, awaitBackstop)
	}
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
			now := s.clock.now()
			if s.beats && now == sampled {
				s.notify.release()
				continue
			}
			sampled = now
			s.sample(now)
		}
	}
}

// runEvent is the event-mode background loop, the one holder of a timer in
// the runtime: it sleeps to the earlier of the next transition's wall
// deadline and the heartbeat, on one timer re-armed every turn. As the waker
// it exists for the quiescent case — when every process is parked, someone
// must still publish the stabilization the pollers are waiting on; under
// load the queriers usually get there first via maybeAdvance and the waker
// finds nothing left to do. The heartbeat outlives the last transition:
// deadlines the notifier does not carry keep arriving after advice converged.
func (s *fdService) runEvent() {
	defer close(s.done)
	timer := time.NewTimer(awaitBackstop)
	defer timer.Stop()
	beat := time.Now()
	for {
		d := awaitBackstop - time.Since(beat)
		if d <= 0 {
			s.notify.release()
			beat, d = time.Now(), awaitBackstop
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
				// then capped at the tick sampler's, it stays stoppable, and
				// queriers still get fresher advice cooperatively.
				s.advance(true)
				u = s.clock.tick
			}
			d = min(d, u)
		}
		timer.Reset(d)
		select {
		case <-s.stop:
			return
		case <-timer.C:
		}
	}
}

// maybeAdvance is the cooperative publication hook on the query path: one
// atomic load when no transition is due, otherwise the caller publishes the
// due transition itself.
func (s *fdService) maybeAdvance() {
	if !s.event || int64(s.clock.now()) < s.nextT.Load() {
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
	for i := range s.cells {
		var v sim.Value
		if s.hist != nil {
			v = s.hist.Query(i, t)
		}
		p := new(sim.Value)
		*p = v
		s.cells[i].v.Store(p)
	}
	nt := int64(noTransition)
	if s.th != nil {
		if next, ok := s.th.NextTransition(t); ok {
			nt = int64(next)
		}
	}
	s.nextT.Store(nt)
	s.tracer.Emit(TraceAdvice, 0, s.runID, int64(t))
	s.notify.bump()
}

// sample evaluates the history for every module at tick now and publishes
// the results (tick mode; also the event-mode fallback for
// non-enumerable histories). The notifier bump keeps epoch-parked pollers
// live under the fallback: they wake at worst one tick after any advice
// movement.
func (s *fdService) sample(now fdet.Time) {
	for i := range s.cells {
		var v sim.Value
		if s.hist != nil {
			v = s.hist.Query(i, now)
		}
		p := new(sim.Value)
		*p = v
		s.cells[i].v.Store(p)
	}
	s.m.Inc(cAdvicePubTick)
	s.tracer.Emit(TraceAdvice, 0, s.runID, int64(now))
	s.notify.bump()
}

// advice returns the latest published advice for module i, first letting the
// caller publish any transition whose deadline has passed (event mode).
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
