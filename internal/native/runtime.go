// Package native is the hardware-speed execution backend for the EFD model:
// process bodies are real goroutines over atomics-backed shared registers
// (one padded atomic pointer cell per register), advice comes from a live
// failure-detector service that publishes an fdet.History's transitions
// against a monotonic clock, and S-process crashes are injected mid-run per an fdet.Pattern.
//
// Any program written against sim.Ops — auto.RunOnEnv and with it every
// collect automaton (Prop 1, the Figure 3/4 renaming algorithms, k-set
// agreement), the direct vector-Ωk solver, the Theorem 9 machine — runs
// unmodified on either backend. What changes is the source of interleavings:
// the explicit lockstep scheduler in sim, the hardware and the Go scheduler
// here. Native runs therefore have no lockstep analyzer; validity is
// established post hoc by Check, which validates the collected decision
// vector against the task's ∆ together with the wait-freedom obligation
// that every correct C-process decides.
package native

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"wfadvice/internal/fdet"
	"wfadvice/internal/ids"
	"wfadvice/internal/obs"
	"wfadvice/internal/sim"
	"wfadvice/internal/vec"
)

// DefaultTick is the wall-clock length of one fdet.Time unit when Config
// leaves Tick zero: long enough for a ticker to keep up under load, short
// enough that a few hundred ticks of detector stabilization pass in tens of
// milliseconds.
const DefaultTick = 100 * time.Microsecond

// Config describes a system to execute natively. The process-facing fields
// are shared with sim.Config, so the same CBody/SBody factories drive both
// backends.
type Config struct {
	NC int // number of C-processes (m in the paper)
	NS int // number of S-processes (n in the paper)

	// Inputs holds one task input per C-process; a nil entry means the
	// process does not participate and is not spawned.
	Inputs vec.Vector

	// CBody returns the program of C-process i; it must not be nil if any
	// input is non-nil. Reset calls CBody and SBody for every process it
	// arms. A factory may return the same body every time, and to several
	// runtimes at once, when the body keeps its per-run state inside the
	// call, as every body in the repo does (core.Scenario builds each once).
	CBody func(i int) sim.Body
	// SBody returns the program of S-process i; nil (or a nil return) spawns
	// no S-process.
	SBody func(i int) sim.Body

	// Pattern is the failure pattern for the S-processes; crash times are in
	// clock ticks. A crashed S-process is killed at its next operation.
	Pattern fdet.Pattern
	// History supplies failure-detector advice: the live service publishes
	// each transition it enumerates once the clock passes it. A nil history
	// answers nil forever (the trivial detector).
	History fdet.History

	// Tick is the wall-clock length of one fdet.Time unit (0 = DefaultTick).
	Tick time.Duration

	// Advice selects how a waiting process waits (AwaitEpoch): AdviceTick
	// (default) yields; AdviceEvent parks on the change epoch, which
	// register writes then bump along with advice publications, and the
	// advice service owes the parked a heartbeat. See AdviceMode.
	Advice AdviceMode

	// Registers is an estimate of how many distinct register keys the run
	// will touch, used to pre-size the sharded register table. Scenarios
	// derive it from their known key shapes (in/i, cons/j/*, cell/a/s/*);
	// zero means a small default and costs only map growth.
	Registers int

	// Tracer, if non-nil, records decision-lifecycle events (instance
	// start, advice publications, epoch parks/wakes, decisions, crashes)
	// into the lock-free ring; see NewTracer. Nil costs one predictable
	// branch per emit site and nothing else.
	Tracer *obs.Tracer
	// RunID labels this instance's trace events (the stress harness
	// passes its instance counter); meaningless without Tracer.
	RunID int64

	// Pin locks every process goroutine to its own OS thread
	// (runtime.LockOSThread) for the duration of the run. With pinning the
	// kernel scheduler, not the Go scheduler, arbitrates between the
	// processes of concurrent instances, so a deciding S-process is never
	// migrated or descheduled by a spin-polling sibling inside the same
	// GOMAXPROCS slot — the ROADMAP's NUMA/core-pinning knob. Costs one OS
	// thread per process goroutine; size worker pools accordingly (the
	// stress harness packs instances GOMAXPROCS-aware, see StressOptions).
	Pin bool
}

// Reason reports why a native run ended.
type Reason int

// Run end reasons.
const (
	ReasonAllDecided  Reason = iota + 1 // every spawned C-process decided
	ReasonBudget                        // wall-clock budget exhausted first
	ReasonAllReturned                   // every goroutine returned, some C-process undecided
)

// String implements fmt.Stringer.
func (r Reason) String() string {
	switch r {
	case ReasonAllDecided:
		return "all-decided"
	case ReasonBudget:
		return "budget"
	case ReasonAllReturned:
		return "all-returned"
	default:
		return fmt.Sprintf("Reason(%d)", int(r))
	}
}

// Result captures everything observable about a finished native run. There
// is no step trace — at hardware speed recording one would serialize the
// run — so analysis is post hoc over the decisions and counters.
type Result struct {
	Inputs    vec.Vector
	Outputs   vec.Vector // decision of each C-process (nil = undecided)
	Decisions map[int]sim.Value
	// Participated[i] reports whether C-process i performed at least one
	// operation.
	Participated map[int]bool
	// Latency[i] is the wall-clock time from run start to C-process i's
	// decision.
	Latency map[int]time.Duration
	// Crashed lists the S-processes killed by crash injection.
	Crashed []int
	// Ops is the total number of operations (reads, writes, advice queries,
	// decisions) performed across all processes.
	Ops int64
	// Elapsed is the run's wall-clock duration; Ticks the final clock value.
	Elapsed time.Duration
	Ticks   fdet.Time
	Reason  Reason
}

// sentinels unwound through process goroutines; identity-compared in
// Env.exited's recover.
var (
	errStopped = errors.New("native: runtime stopped")
	errCrashed = errors.New("native: S-process crashed")
)

// cacheLine padding keeps each hot atomic on its own line so unrelated
// registers (and advice cells) never false-share.
type pad [64]byte

// Runtime executes configured systems natively, one run per arming: build it
// with New (or take a zero Runtime and Reset it), Run, inspect the Result, and
// either drop it or Reset it for the next system. Between runs a Runtime owns
// no goroutine and no armed timer — process goroutines and the advice
// service's loop are spawned by Run and joined before it returns — so there
// is nothing to close. What it keeps across a Reset is what a run builds
// around its protocol rather than for it: the register table and its cells,
// the advice cells, the notifier, the Envs and the handles they bound, the
// done channel, both timers and the Result.
//
// A Runtime is not for concurrent use: Reset and Run are called from one
// goroutine at a time, and never while a Run is in progress.
type Runtime struct {
	cfg    Config
	store  *store
	clock  clock
	fd     *fdService
	notify *notifier
	m      obs.Handle
	wake   bool // processes park: writes bump the notifier, the heartbeat beats
	armed  bool // Reset has prepared a run that Run has not yet taken

	// cenvs[i] and senvs[i] are the Envs of C-process i and S-process i, built
	// the first time a run spawns that process and re-armed for every later
	// one; envs lists the ones this run spawns.
	cenvs, senvs []*Env
	envs         []*Env

	stopped   atomic.Bool
	undecided atomic.Int64
	live      atomic.Int64
	doneCh    chan struct{} // holds one token once the run is over
	timer     *time.Timer   // the run budget, re-armed by every Run
	wg        sync.WaitGroup
	res       Result
}

// New validates cfg and builds a native runtime armed to run it: a zero
// Runtime and its first Reset.
func New(cfg Config) (*Runtime, error) {
	r := new(Runtime)
	if err := r.Reset(cfg); err != nil {
		return nil, err
	}
	return r, nil
}

// Reset validates cfg and arms the runtime to run it, as New would a fresh
// one; on an error the runtime is left as it was. Nothing of an earlier run
// is visible to the next:
//
//   - Registers. Every register reads nil until the new run writes it. The
//     table and its cells are kept and emptied in place when they fit —
//     the table holds at most twice cfg.Registers registers (at least 64)
//     — and replaced otherwise, so a caller
//     that names fresh keys every run cannot grow a runtime with the number
//     of runs.
//   - Advice. The service serves cfg.History from tick 0 on the clock Run
//     starts; a nil history answers nil whatever the last one published.
//   - Processes. Each spawned process gets its body from cfg.CBody or
//     cfg.SBody — the factory's to build or hand out again; a body starts
//     from nothing each call — and its input, with its operation count,
//     decision and crash state cleared. NC, NS and the participant set may
//     all differ from the last run's. A process keeps the handles of its
//     first few Binds: when it binds the same key table (same backing array
//     and length) at the same call position as last run, it gets that handle
//     back, resolved against the kept table, collect buffer included, instead
//     of a new one.
//
// The Result of the earlier run is overwritten by the next.
func (r *Runtime) Reset(cfg Config) error {
	if cfg.NC < 0 || cfg.NS < 0 {
		return fmt.Errorf("native: negative process counts")
	}
	if len(cfg.Inputs) != cfg.NC {
		return fmt.Errorf("native: %d inputs for %d C-processes", len(cfg.Inputs), cfg.NC)
	}
	if cfg.Pattern.N != cfg.NS {
		return fmt.Errorf("native: pattern over %d processes, want %d", cfg.Pattern.N, cfg.NS)
	}
	if cfg.CBody == nil {
		for i, in := range cfg.Inputs {
			if in != nil {
				return fmt.Errorf("native: participating C-process p%d has no body", i+1)
			}
		}
	}
	if cfg.Tick <= 0 {
		cfg.Tick = DefaultTick
	}
	r.cfg = cfg
	r.clock.tick = cfg.Tick
	r.wake = cfg.Advice == AdviceEvent
	if r.notify == nil {
		r.m = Telemetry.Handle()
		r.notify = newNotifier(r.m)
		r.doneCh = make(chan struct{}, 1)
		r.timer = time.NewTimer(time.Hour)
		r.timer.Stop()
		r.fd = newFDService(&r.clock, cfg.History, cfg.NS, r.notify)
	} else {
		r.fd.reset(cfg.History, cfg.NS)
	}
	r.fd.tracer, r.fd.runID = cfg.Tracer, cfg.RunID
	if r.store == nil || !r.store.rearm(cfg.Registers) {
		r.store = newStore(cfg.Registers)
		for _, e := range r.cenvs {
			e.forgetBinds()
		}
		for _, e := range r.senvs {
			e.forgetBinds()
		}
	}
	r.stopped.Store(false)
	select {
	case <-r.doneCh: // the last run's token, if its Run did not consume it
	default:
	}
	r.envs = r.envs[:0]
	for len(r.cenvs) < cfg.NC {
		r.cenvs = append(r.cenvs, nil)
	}
	for len(r.senvs) < cfg.NS {
		r.senvs = append(r.senvs, nil)
	}
	undecided := 0
	for i := 0; i < cfg.NC; i++ {
		if cfg.Inputs[i] == nil {
			continue
		}
		r.arm(&r.cenvs[i], ids.C(i), cfg.Inputs[i], cfg.CBody(i))
		undecided++
	}
	r.undecided.Store(int64(undecided))
	for i := 0; i < cfg.NS; i++ {
		if cfg.SBody == nil {
			continue
		}
		b := cfg.SBody(i)
		if b == nil {
			continue
		}
		r.arm(&r.senvs[i], ids.S(i), nil, b)
	}
	r.armed = true
	return nil
}

// Registers is the number of registers in the table: everything a run has
// named and not released. For the time between two runs.
func (r *Runtime) Registers() int { return r.store.held() }

// arm readies the Env in *slot to run body as process id in the coming run,
// building it the first time that process is spawned.
func (r *Runtime) arm(slot **Env, id ids.Proc, input sim.Value, body sim.Body) {
	e := *slot
	if e == nil {
		e = &Env{r: r, id: id, crashable: id.IsS(), m: Telemetry.Handle()}
		e.spawn = e.run
		*slot = e
	}
	e.input, e.body = input, body
	e.ops, e.decided, e.decision, e.decideAt, e.crashed = 0, false, nil, 0, false
	e.nbind = 0
	r.envs = append(r.envs, e)
}

// done reports the run over; only the first report of a run leaves a token.
func (r *Runtime) done() {
	select {
	case r.doneCh <- struct{}{}:
	default:
	}
}

// Run starts every process goroutine and the failure-detector service, then
// waits until every spawned C-process has decided, every goroutine has
// returned, or the wall-clock budget elapses, whichever comes first.
// S-processes conceptually run forever; once the computation side is done
// the run is over, exactly like the sim backend's StopWhenDecided.
//
// Each arming is good for one Run: a second Run without a Reset in between
// panics on the caller's goroutine. The Result belongs to the runtime and is
// overwritten by the Run after the next Reset.
func (r *Runtime) Run(budget time.Duration) *Result {
	if !r.armed {
		panic("native: Run on a Runtime that is not armed: it has already run and was not Reset, or was never given a Config")
	}
	r.armed = false
	r.clock.start = time.Now()
	r.fd.startService(r.wake)
	r.live.Store(int64(len(r.envs)))
	r.m.Inc(cRunStart)
	r.cfg.Tracer.Emit(TraceRunStart, 0, r.cfg.RunID, int64(len(r.envs)))
	r.wg.Add(len(r.envs))
	for _, e := range r.envs {
		go e.spawn()
	}
	// A system with C-processes ends when they all decide; one without ends
	// when every spawned goroutine returns (see Env.exited), or immediately
	// if nothing was spawned.
	if len(r.envs) == 0 {
		r.done()
	}
	r.timer.Reset(budget)
	reason := ReasonAllDecided
	select {
	case <-r.doneCh:
	case <-r.timer.C:
		reason = ReasonBudget
	}
	r.timer.Stop()
	r.stopped.Store(true)
	// Wake every epoch-parked goroutine so it observes the stop: any
	// AwaitEpoch entered after the store panics errStopped on entry, and any
	// already parked is woken by this bump and panics on its next operation.
	r.notify.bump()
	r.wg.Wait()
	r.fd.stopService()
	// The run is also reported over when every goroutine returns; if that
	// happened with C-processes still undecided (a body with a non-deciding
	// return path), the run did not actually end in the all-decided state.
	if reason == ReasonAllDecided && r.undecided.Load() != 0 {
		reason = ReasonAllReturned
	}
	r.cfg.Tracer.Emit(TraceRunEnd, 0, r.cfg.RunID, int64(reason))
	return r.result(reason)
}

// result fills the runtime's Result from the finished run, reusing its maps
// and vectors when the system has the size of the last one.
func (r *Runtime) result(reason Reason) *Result {
	res := &r.res
	if res.Decisions == nil {
		res.Decisions = make(map[int]sim.Value)
		res.Participated = make(map[int]bool)
		res.Latency = make(map[int]time.Duration)
	}
	clear(res.Decisions)
	clear(res.Participated)
	clear(res.Latency)
	if len(res.Outputs) != r.cfg.NC {
		res.Inputs, res.Outputs = vec.New(r.cfg.NC), vec.New(r.cfg.NC)
	}
	clear(res.Outputs)
	res.Crashed = res.Crashed[:0]
	res.Ops = 0
	res.Elapsed, res.Ticks, res.Reason = r.clock.since(), r.clock.now(), reason
	for _, e := range r.envs {
		res.Ops += e.ops
		if e.id.IsC() {
			if e.ops > 0 {
				res.Participated[e.id.Index] = true
			}
			if e.decided {
				res.Decisions[e.id.Index] = e.decision
				res.Outputs[e.id.Index] = e.decision
				res.Latency[e.id.Index] = e.decideAt
			}
		} else if e.crashed {
			res.Crashed = append(res.Crashed, e.id.Index)
		}
	}
	// The run's input vector contains only participating processes (§2.2).
	for i := range res.Inputs {
		res.Inputs[i] = nil
		if res.Participated[i] {
			res.Inputs[i] = r.cfg.Inputs[i]
		}
	}
	return res
}

// Env is a process's handle to the shared registers, its failure-detector
// module and its decision action on the native backend. Operations execute
// immediately against atomics; there is no scheduler to park on.
type Env struct {
	r         *Runtime
	id        ids.Proc
	input     sim.Value
	body      sim.Body
	crashable bool
	// m is this process's pre-resolved metrics stripe; a bump is one
	// atomic add.
	m obs.Handle
	// spawn is the func value of run, made once: Run's go statement on it
	// allocates nothing.
	spawn func()
	// binds memoizes the handles of a run's first memoBinds calls to Bind, by
	// call position, for the next run to take back (see Bind); nbind counts
	// this run's calls.
	binds [memoBinds]*boundRegs
	nbind int
	// The fields below are goroutine-local; the runtime reads them only
	// after wg.Wait(), which orders the accesses.
	ops      int64
	decided  bool
	decision sim.Value
	decideAt time.Duration
	crashed  bool
}

var _ sim.Ops = (*Env)(nil)

// run is the process goroutine: the body, on its own OS thread when pinned.
// exited is its only defer. A recover that leaves other defers pending in
// the frame it returns to makes the Go runtime save their state on the heap,
// one object per stop or crash unwind; so exited does their work itself.
func (e *Env) run() {
	defer e.exited()
	if e.r.cfg.Pin {
		// Dedicate an OS thread to this process for the whole run; the
		// unlock in exited hands the thread back to the scheduler instead of
		// destroying it, so back-to-back pinned instances reuse threads
		// rather than churn them.
		runtime.LockOSThread()
	}
	e.body(e)
}

// exited runs deferred as the body unwinds: it releases a pinned thread,
// reports the run over when the last process goes, records an injected
// crash, swallows the stop sentinel and re-raises anything else the body
// panicked with, which ends the program. Its last act is the wait group's
// Done: after it the Runtime may re-arm this Env.
func (e *Env) exited() {
	x := recover()
	r := e.r
	if r.cfg.Pin {
		runtime.UnlockOSThread()
	}
	if r.live.Add(-1) == 0 {
		r.done()
	}
	switch x {
	case nil, errStopped:
	case errCrashed:
		e.crashed = true
		e.m.Inc(cCrashInject)
		r.cfg.Tracer.Emit(TraceCrash, procCode(true, e.id.Index), r.cfg.RunID, int64(r.clock.now()))
	default:
		panic(x)
	}
	r.wg.Done()
}

// step is the per-operation prologue: count the op, honor a stop, and kill a
// crashed S-process. Crash injection happens here — at the process's next
// operation after its pattern crash time — which is as "mid-run" as the
// model gets: crashes strike between operations, never inside one.
func (e *Env) step() {
	e.ops++
	if e.r.stopped.Load() {
		panic(errStopped)
	}
	if e.crashable && e.r.cfg.Pattern.Crashed(e.id.Index, e.r.clock.now()) {
		panic(errCrashed)
	}
}

// cell resolves key for a keyed operation: one lookup in the sharded table
// (one shard lock, one map hit) on every call. Lookups are counted on the
// process's own stripe; a counter inside the table would be one cache line
// every process writes. Bodies bind the keys they touch more than once.
func (e *Env) cell(key string) *cell {
	e.m.Inc(cStoreShardLookup)
	return e.r.store.lookup(key)
}

// Proc returns this process's identity.
func (e *Env) Proc() ids.Proc { return e.id }

// Index returns this process's zero-based index within its kind.
func (e *Env) Index() int { return e.id.Index }

// NC returns the number of C-processes in the system.
func (e *Env) NC() int { return e.r.cfg.NC }

// NS returns the number of S-processes in the system.
func (e *Env) NS() int { return e.r.cfg.NS }

// Input returns the task input of a C-process (nil for S-processes).
func (e *Env) Input() sim.Value { return e.input }

// HasDecided reports whether this C-process already decided.
func (e *Env) HasDecided() bool { return e.decided }

// Read performs one atomic register read.
func (e *Env) Read(key string) sim.Value {
	e.step()
	e.m.Inc(cRegReadKeyed)
	return e.cell(key).load()
}

// ReadMany performs a batched collect: one operation prologue (stop/crash
// check, counting len(keys) reads), then one shard lookup plus one atomic
// load per key. It is still a regular collect — the loads are individual
// and unsynchronized, so concurrent writes may land between them. Hot
// collect loops run on bound handles instead (Regs.ReadMany: resolved
// cells, reused buffer, no per-call work); this keyed form is for one-off
// collects.
func (e *Env) ReadMany(keys []string) []sim.Value {
	e.ops += int64(len(keys)) - 1
	e.step()
	e.m.Inc(cRegCollectKeyed)
	out := make([]sim.Value, len(keys))
	for i, k := range keys {
		out[i] = e.cell(k).load()
	}
	return out
}

// Write performs one atomic register write. Values must be treated as
// immutable once written, as on the sim backend — here the race detector
// enforces it. Ints that fit 63 bits are stored unboxed (see cell.store);
// everything else is boxed exactly as before.
func (e *Env) Write(key string, v sim.Value) {
	e.step()
	e.m.Inc(cRegWriteKeyed)
	e.cell(key).store(v, &e.m)
	if e.r.wake {
		e.r.notify.bump()
	}
}

// QueryFD returns this S-process's current advice from the live
// failure-detector service: one atomic load of the latest published value.
func (e *Env) QueryFD() sim.Value {
	if !e.id.IsS() {
		panic(fmt.Sprintf("native: C-process %v queried the failure detector", e.id))
	}
	e.step()
	e.m.Inc(cAdviceQuery)
	return e.r.fd.advice(e.id.Index)
}

// awaitBackstop is the heartbeat period: how long a process can stay parked
// in AwaitEpoch before the advice service's background loop releases it to
// recheck its surroundings. It is the liveness net for events the notifier
// does not carry (this process's own crash deadline arriving while parked),
// not a latency mechanism — all real wakeups are event-driven bumps.
const awaitBackstop = time.Millisecond

// Epoch returns the runtime's change epoch, sampled before a predicate
// sweep and passed to AwaitEpoch afterwards. It is not a shared-memory
// operation: no step is consumed and no crash can strike on it.
func (e *Env) Epoch() uint64 { return e.r.notify.current() }

// AwaitEpoch is the wait between two unsuccessful sweeps; how to wait is this
// backend's decision, taken from what the epoch carries. Under event advice
// every register write and advice publication bumps it, so the caller parks
// until it differs from seen, teardown, or the next heartbeat (the caller
// waits on the notifier and holds no timer). Sampling seen before the sweep
// makes the park race-free: a change landing between sweep and park has
// already advanced the epoch, so the park returns immediately. Under tick
// advice the epoch carries no register writes — a park could sleep through
// the write the caller is polling for — so the wait is one scheduler yield.
// Like Epoch it consumes no step, but stop and crash deadlines are honored
// on entry (a waiting process is "between operations", where the model says
// crashes strike). On the sim backend this is a no-op: the lockstep
// scheduler paces every step, so there is nothing to wait for.
func (e *Env) AwaitEpoch(seen uint64) {
	if e.r.stopped.Load() {
		panic(errStopped)
	}
	if e.crashable && e.r.cfg.Pattern.Crashed(e.id.Index, e.r.clock.now()) {
		panic(errCrashed)
	}
	if !e.r.wake {
		runtime.Gosched()
		return
	}
	if t := e.r.cfg.Tracer; t != nil {
		p := procCode(e.id.IsS(), e.id.Index)
		t.Emit(TracePark, p, e.r.cfg.RunID, int64(seen))
		e.r.notify.await(seen)
		moved := int64(0)
		if e.r.notify.current() != seen {
			moved = 1
		}
		t.Emit(TraceWake, p, e.r.cfg.RunID, moved)
		return
	}
	e.r.notify.await(seen)
}

// Decide records this C-process's decision. The decision is final; deciding
// twice panics, as on the sim backend.
func (e *Env) Decide(v sim.Value) {
	if !e.id.IsC() {
		panic(fmt.Sprintf("native: S-process %v attempted to decide", e.id))
	}
	if e.decided {
		panic(fmt.Sprintf("native: %v decided twice", e.id))
	}
	e.step()
	e.m.Inc(cDecide)
	e.decided = true
	e.decision = v
	e.decideAt = e.r.clock.since()
	e.r.cfg.Tracer.Emit(TraceDecide, procCode(false, e.id.Index), e.r.cfg.RunID, int64(e.decideAt))
	if e.r.undecided.Add(-1) == 0 {
		e.r.done()
	}
}
