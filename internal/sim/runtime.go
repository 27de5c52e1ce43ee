// Package sim is the execution substrate for the external-failure-detection
// (EFD) model: a read-write shared-memory system of C-processes and
// S-processes driven by an explicit scheduler, one atomic step at a time
// (§2.1 of "Wait-Freedom with Advice").
//
// Process bodies are ordinary Go functions, each run as a coroutine of the
// runtime's single thread of control: every shared-memory operation (read,
// write, failure-detector query, decide) yields to Runtime.Run, which
// resumes exactly one process per scheduled step. A run's interleaving is
// therefore the scheduler's choices and nothing else, and runs are
// reproducible. Local computation between steps is free, exactly as in the
// model. Crashes apply only to S-processes; C-processes never crash but may
// simply stop being scheduled — the distinction at the heart of the EFD
// model.
package sim

import (
	"errors"
	"fmt"
	"iter"

	"wfadvice/internal/fdet"
	"wfadvice/internal/ids"
	"wfadvice/internal/obs"
	"wfadvice/internal/vec"
)

// Value is a shared-register value. Registers are atomic; values must be
// treated as immutable once written (writers should copy slices and maps at
// the boundary).
type Value = any

// OpKind classifies the steps recorded in a trace.
type OpKind int

// Step kinds.
const (
	OpWrite OpKind = iota + 1
	OpRead
	OpQueryFD
	OpDecide
)

// String implements fmt.Stringer.
func (k OpKind) String() string {
	switch k {
	case OpWrite:
		return "write"
	case OpRead:
		return "read"
	case OpQueryFD:
		return "queryFD"
	case OpDecide:
		return "decide"
	default:
		return fmt.Sprintf("OpKind(%d)", int(k))
	}
}

// Event is one recorded step of a run.
type Event struct {
	Step int
	Proc ids.Proc
	Kind OpKind
	Key  string
	Val  Value // value written, read, returned by the detector, or decided
}

// PendingOp describes the operation a parked process will perform when the
// scheduler next grants it a step. Schedule explorers use it to decide which
// pending operations commute.
type PendingOp struct {
	Kind OpKind
	Key  string // register key; empty for queryFD and decide
}

// Ops is the operation surface a process body runs against: the shared
// atomic registers, the process's failure-detector module (S-processes), its
// decision action (C-processes), and its static identity. It is the contract
// extracted from Env so that the same body — and hence the same algorithm —
// runs unmodified on either execution backend: the lockstep sim runtime
// (*Env) or the hardware-speed goroutine runtime (internal/native).
//
// On the sim backend every operation consumes one scheduled step; on the
// native backend operations execute immediately against atomics and the
// interleaving is whatever the hardware and the Go scheduler produce.
type Ops interface {
	// Proc returns this process's identity.
	Proc() ids.Proc
	// Index returns this process's zero-based index within its kind.
	Index() int
	// NC returns the number of C-processes in the system.
	NC() int
	// NS returns the number of S-processes in the system.
	NS() int
	// Input returns the task input of a C-process (nil for S-processes).
	Input() Value
	// HasDecided reports whether this C-process already decided.
	HasDecided() bool
	// Read performs one atomic register read.
	Read(key string) Value
	// ReadMany performs one atomic register read per key, in order, and
	// returns the values observed. It is a regular collect, never an atomic
	// snapshot: writes by other processes may land between the individual
	// reads. On the sim backend it consumes exactly len(keys) scheduled
	// steps and is step-for-step identical to a loop of Read calls, so
	// traces, explorer state spaces and experiment results are unchanged by
	// porting a collect loop onto it. On the native backend it is one
	// operation prologue, then one cell resolution and atomic load per key.
	//
	// The keys slice must not be mutated after it has been passed to
	// ReadMany — backends may keep it. The returned slice is owned by the
	// caller. Hot collect loops should bind their key table once and use
	// Regs.ReadMany with a reused buffer instead.
	ReadMany(keys []string) []Value
	// Bind resolves a fixed table of register keys once into a bound handle
	// with slot-indexed operations (keys[i] becomes slot i). Bodies bind
	// their key tables up front — once per body or per consensus instance —
	// and run their hot loops against the handle.
	//
	// On the sim backend a bound operation is exactly the corresponding
	// keyed operation (same scheduled step, same trace event, same pending
	// op), so binding never perturbs a schedule, trace, explorer state space
	// or experiment result. On the native backend binding resolves each key
	// to its register cell pointer once, making every subsequent bound
	// operation a direct atomic access with no per-op hashing or map
	// lookups — the allocation-free hot path.
	//
	// The keys slice must not be mutated after it has been passed to Bind;
	// backends keep it. Bind may allocate (it is the setup step, not the hot
	// path).
	Bind(keys []string) Regs
	// Write performs one atomic register write.
	Write(key string, v Value)
	// QueryFD queries this S-process's failure-detector module.
	QueryFD() Value
	// Decide records this C-process's decision (final; deciding twice panics).
	Decide(v Value)
	// Epoch returns the backend's change epoch, and AwaitEpoch is the wait
	// between two unsuccessful sweeps: poll loops sample Epoch before a
	// predicate sweep and call AwaitEpoch with the sampled value whenever
	// the sweep makes no progress. How to wait is the backend's decision,
	// not the algorithm's. Neither call is a shared-memory operation: no
	// scheduled step is consumed, nothing is traced, and schedules, explorer
	// state spaces and experiment results are unchanged by their presence.
	// On the sim backend the lockstep scheduler paces every step, so there
	// is nothing to wait for: Epoch is constantly zero and AwaitEpoch
	// returns immediately. On the native backend the wait follows the advice
	// mode: under event advice the epoch advances on every advice
	// publication, register write and teardown, and AwaitEpoch parks until
	// it differs from seen — any change landing after the sample has already
	// advanced it, so the park cannot miss one; under tick advice the epoch
	// carries no register writes and AwaitEpoch is a scheduler yield (see
	// native.Env.AwaitEpoch).
	Epoch() uint64
	AwaitEpoch(seen uint64)
	// Release gives registers back: the caller asserts that no process will
	// ever name these keys again, itself included, so the backend may drop
	// whatever it holds for them. Like Epoch it is not a shared-memory
	// operation: no scheduled step, no trace event. Releasing a key that is
	// already gone, or was never written, is a no-op, so several processes
	// may release the same keys without coordinating. On the sim backend the
	// keys leave the store and any later access to one fails the run (the
	// use-after-release oracle every sim test and the explorer run under);
	// on the native backend they leave the register table and their cells
	// are recycled (see native.Env.Release), so an access after release is
	// undefined there. The keys slice is not kept.
	Release(keys []string)
}

// Body is a process program. It runs against an Ops backend — as a coroutine
// of the sim runtime, where every operation consumes one scheduled step, or
// in its own goroutine on the native one.
type Body func(e Ops)

// Config describes a system to execute.
type Config struct {
	NC int // number of C-processes (m in the paper)
	NS int // number of S-processes (n in the paper)

	// Inputs holds one task input per C-process; a nil entry means the
	// process does not participate and is not spawned.
	Inputs vec.Vector

	// CBody returns the program of C-process i; it must not be nil if any
	// input is non-nil. A factory may return the same body on every run,
	// and to several runtimes at once, when the body keeps its per-run state
	// inside the call.
	CBody func(i int) Body
	// SBody returns the program of S-process i. A nil SBody (or nil return)
	// spawns no S-process, which models the "restricted algorithms" of §2.2
	// in which S-processes take only null steps.
	SBody func(i int) Body

	// Pattern is the failure pattern for the S-processes.
	Pattern fdet.Pattern
	// History supplies failure-detector values to S-process queries; nil
	// histories answer nil (the trivial detector).
	History fdet.History

	// MaxSteps bounds the run; the bounded stand-in for "infinite run".
	MaxSteps int
}

// Reason reports why a run ended.
type Reason int

// Run end reasons.
const (
	ReasonMaxSteps  Reason = iota + 1 // step budget exhausted
	ReasonAllDone                     // every spawned process returned
	ReasonScheduler                   // scheduler declined to pick a process
)

// String implements fmt.Stringer.
func (r Reason) String() string {
	switch r {
	case ReasonMaxSteps:
		return "max-steps"
	case ReasonAllDone:
		return "all-done"
	case ReasonScheduler:
		return "scheduler-stopped"
	default:
		return fmt.Sprintf("Reason(%d)", int(r))
	}
}

// Result captures everything observable about a finished run.
type Result struct {
	Inputs    vec.Vector
	Outputs   vec.Vector // decision of each C-process (nil = undecided)
	Decisions map[int]Value
	Trace     []Event
	Steps     int
	Reason    Reason
	// Participated[i] reports whether C-process i took at least one step.
	Participated map[int]bool
	// FinalStore is a copy of the shared memory at the end of the run.
	FinalStore map[string]Value
}

// errStopped unwinds a parked body when its runtime stops.
var errStopped = errors.New("sim: runtime stopped")

type proc struct {
	id    ids.Proc
	input Value
	body  Body
	env   *Env
	steps int
	// next resumes the body until it parks at its next operation or returns,
	// stop unwinds a parked body, and yield is the body's side of the pair
	// (iter.Pull); all three exist only while Run is executing.
	next  func() (PendingOp, bool)
	stop  func()
	yield func(PendingOp) bool
	// pending is the operation this process is parked at; parked is false
	// before the body's first operation and once the body has returned.
	pending PendingOp
	parked  bool
	// decided is set for C-processes once they call Decide.
	decided  bool
	decision Value
}

// run is the process's coroutine: the body, parking through yield. A body
// unwound by errStopped has simply ended; any other panic propagates to
// whoever resumed it.
func (p *proc) run(yield func(PendingOp) bool) {
	p.yield = yield
	defer func() {
		if x := recover(); x != nil && x != errStopped { //nolint:errorlint // sentinel identity
			panic(x)
		}
	}()
	p.body(p.env)
}

// advance resumes the body: it performs the operation it was parked at (if
// any) and runs on to its next operation or its return. It reports whether
// the process is parked again.
func (p *proc) advance() bool {
	p.pending, p.parked = p.next()
	return p.parked
}

// Runtime executes one configured system. A Runtime is single-use: create,
// Run once, inspect the Result.
type Runtime struct {
	cfg   Config
	store map[string]Value
	// released holds every key a process has given back (Ops.Release); nil
	// until the first release.
	released map[string]struct{}
	procs    []*proc // stable order: C(0..NC-1) then S(0..NS-1), spawned only
	byID     map[ids.Proc]*proc
	trace    []Event
	step     int
	ran      bool
	// mh is the op-count telemetry handle, minted at construction.
	// Strictly outside Result: see metrics.go.
	mh obs.Handle
}

// New validates cfg and builds a runtime.
func New(cfg Config) (*Runtime, error) {
	if cfg.NC < 0 || cfg.NS < 0 {
		return nil, fmt.Errorf("sim: negative process counts")
	}
	if len(cfg.Inputs) != cfg.NC {
		return nil, fmt.Errorf("sim: %d inputs for %d C-processes", len(cfg.Inputs), cfg.NC)
	}
	if cfg.MaxSteps <= 0 {
		return nil, fmt.Errorf("sim: MaxSteps must be positive")
	}
	if cfg.Pattern.N != cfg.NS {
		return nil, fmt.Errorf("sim: pattern over %d processes, want %d", cfg.Pattern.N, cfg.NS)
	}
	r := &Runtime{
		cfg:   cfg,
		store: make(map[string]Value),
		byID:  make(map[ids.Proc]*proc),
		mh:    Telemetry.Handle(),
	}
	for i := 0; i < cfg.NC; i++ {
		if cfg.Inputs[i] == nil {
			continue
		}
		if cfg.CBody == nil {
			return nil, fmt.Errorf("sim: participating C-process p%d has no body", i+1)
		}
		r.addProc(ids.C(i), cfg.Inputs[i], cfg.CBody(i))
	}
	for i := 0; i < cfg.NS; i++ {
		if cfg.SBody == nil {
			continue
		}
		b := cfg.SBody(i)
		if b == nil {
			continue
		}
		r.addProc(ids.S(i), nil, b)
	}
	return r, nil
}

func (r *Runtime) addProc(id ids.Proc, input Value, body Body) {
	p := &proc{id: id, input: input, body: body}
	p.env = &Env{r: r, p: p}
	r.procs = append(r.procs, p)
	r.byID[id] = p
}

// Run drives the system until the step budget is exhausted, the scheduler
// stops, or every process returns. It is sequential code: every body is
// advanced to its first operation in process order, and from then on one
// step is one resumption of the process the scheduler chose — that process
// performs the operation it was parked at against the store and runs on to
// its next operation or its return while everything else stands still. A
// panic in a body surfaces here, on the caller's goroutine, and every body
// still parked when Run ends (normally or by that panic) is unwound first,
// so a finished Runtime holds no coroutine.
func (r *Runtime) Run(sched Scheduler) *Result {
	if r.ran {
		panic("sim: Run called twice on one Runtime; a Runtime is single-use, build the next one with sim.New")
	}
	r.ran = true
	r.mh.Inc(cSimRun)
	live := 0
	for _, p := range r.procs {
		p.next, p.stop = iter.Pull(p.run)
		defer p.stop()
		if p.advance() {
			live++
		}
	}
	for live > 0 {
		if r.step >= r.cfg.MaxSteps {
			return r.result(ReasonMaxSteps)
		}
		view := r.view()
		if len(view.Ready) == 0 {
			// Every remaining process is crashed; the run is over.
			return r.result(ReasonAllDone)
		}
		next, ok := sched.Next(view)
		p := r.byID[next]
		if !ok || p == nil || !p.parked {
			// The scheduler stopped, or named a process with no step to take.
			return r.result(ReasonScheduler)
		}
		if !p.advance() {
			live--
		}
	}
	return r.result(ReasonAllDone)
}

// view assembles the scheduler's view of the current state.
func (r *Runtime) view() *View {
	v := &View{
		Step:      r.step,
		NC:        r.cfg.NC,
		NS:        r.cfg.NS,
		Started:   make(map[ids.Proc]bool, len(r.procs)),
		DecidedC:  make(map[int]bool, r.cfg.NC),
		Pending:   make(map[ids.Proc]PendingOp, len(r.procs)),
		stepsOf:   make(map[ids.Proc]int, len(r.procs)),
		decisions: make(map[int]Value, r.cfg.NC),
	}
	for _, p := range r.procs {
		v.Started[p.id] = p.steps > 0
		v.stepsOf[p.id] = p.steps
		if p.id.IsC() {
			if p.decided {
				v.DecidedC[p.id.Index] = true
				v.decisions[p.id.Index] = p.decision
			} else {
				v.cRemaining++
			}
		}
		if !p.parked {
			continue
		}
		v.Pending[p.id] = p.pending
		if p.id.IsS() && r.cfg.Pattern.Crashed(p.id.Index, r.step) {
			continue // crashed S-processes take no further steps
		}
		v.Ready = append(v.Ready, p.id)
	}
	for _, p := range r.procs {
		if p.id.IsC() && p.steps > 0 && !p.decided {
			v.UndecidedParticipating = append(v.UndecidedParticipating, p.id.Index)
		}
	}
	return v
}

func (r *Runtime) result(reason Reason) *Result {
	res := &Result{
		Inputs:       r.cfg.Inputs.Clone(),
		Outputs:      vec.New(r.cfg.NC),
		Decisions:    make(map[int]Value),
		Trace:        r.trace,
		Steps:        r.step,
		Reason:       reason,
		Participated: make(map[int]bool),
		FinalStore:   make(map[string]Value, len(r.store)),
	}
	for _, p := range r.procs {
		if p.id.IsC() {
			if p.steps > 0 {
				res.Participated[p.id.Index] = true
			}
			if p.decided {
				res.Decisions[p.id.Index] = p.decision
				res.Outputs[p.id.Index] = p.decision
			}
		}
	}
	// The run's input vector contains only participating processes (§2.2).
	for i := range res.Inputs {
		if !res.Participated[i] {
			res.Inputs[i] = nil
		}
	}
	for k, v := range r.store {
		res.FinalStore[k] = v
	}
	return res
}

// record appends a trace event; called by the resumed process as it performs
// its operation. The telemetry bumps ride here — the one place
// every executed step passes — and touch nothing the Result is built from.
func (r *Runtime) record(p *proc, kind OpKind, key string, val Value) {
	r.trace = append(r.trace, Event{Step: r.step, Proc: p.id, Kind: kind, Key: key, Val: val})
	r.step++
	p.steps++
	r.mh.Inc(cSimStep)
	r.mh.Inc(kindCounter(kind))
}

// Env is a process's handle to the shared memory, its failure-detector
// module (S-processes) and its decision action (C-processes). Every method
// that consumes a step yields to the runtime until the scheduler grants one.
type Env struct {
	r *Runtime
	p *proc
}

var _ Ops = (*Env)(nil)

// await parks the process until the scheduler grants it a step, announcing
// the operation it is about to perform. It returns on the grant; when the
// runtime is stopping instead, it unwinds the body.
func (e *Env) await(kind OpKind, key string) {
	if !e.p.yield(PendingOp{Kind: kind, Key: key}) {
		panic(errStopped)
	}
}

// Proc returns this process's identity.
func (e *Env) Proc() ids.Proc { return e.p.id }

// Index returns this process's zero-based index within its kind.
func (e *Env) Index() int { return e.p.id.Index }

// NC returns the number of C-processes in the system.
func (e *Env) NC() int { return e.r.cfg.NC }

// NS returns the number of S-processes in the system.
func (e *Env) NS() int { return e.r.cfg.NS }

// Input returns the task input of a C-process (nil for S-processes).
func (e *Env) Input() Value { return e.p.input }

// HasDecided reports whether this C-process already decided.
func (e *Env) HasDecided() bool { return e.p.decided }

// Read performs one atomic register read.
func (e *Env) Read(key string) Value {
	e.await(OpRead, key)
	e.r.checkLive(e.p, OpRead, key)
	v := e.r.store[key]
	e.r.record(e.p, OpRead, key, v)
	return v
}

// ReadMany performs one atomic register read per key, in order. Each read
// parks on the scheduler individually, so a collect of n keys consumes
// exactly n steps and other processes' writes can interleave between them —
// regular-collect semantics, identical to the equivalent Read loop.
func (e *Env) ReadMany(keys []string) []Value {
	out := make([]Value, len(keys))
	for i, k := range keys {
		out[i] = e.Read(k)
	}
	return out
}

// Write performs one atomic register write.
func (e *Env) Write(key string, v Value) {
	e.await(OpWrite, key)
	e.r.checkLive(e.p, OpWrite, key)
	e.r.store[key] = v
	e.r.record(e.p, OpWrite, key, v)
}

// QueryFD queries this S-process's failure-detector module. The history is
// evaluated at the current global step, which is the model's time.
func (e *Env) QueryFD() Value {
	if !e.p.id.IsS() {
		panic(fmt.Sprintf("sim: C-process %v queried the failure detector", e.p.id))
	}
	e.await(OpQueryFD, "")
	var v Value
	if e.r.cfg.History != nil {
		v = e.r.cfg.History.Query(e.p.id.Index, e.r.step)
	}
	e.r.record(e.p, OpQueryFD, "", v)
	return v
}

// Epoch implements Ops. The sim scheduler paces every step, so the change
// epoch never moves: constant zero, no step consumed, nothing traced.
func (e *Env) Epoch() uint64 { return 0 }

// AwaitEpoch implements Ops. Inert on the sim backend (see Epoch): the
// scheduler already parks the process until its next step is granted, so
// there is never anything to wait for here.
func (e *Env) AwaitEpoch(uint64) {}

// Release implements Ops: the keys leave the store for good. No step is
// consumed and nothing is traced.
func (e *Env) Release(keys []string) {
	r := e.r
	if r.released == nil {
		r.released = make(map[string]struct{}, len(keys))
	}
	for _, k := range keys {
		delete(r.store, k)
		r.released[k] = struct{}{}
	}
}

// checkLive fails the run when p performs an operation on a register some
// process has released: the releaser promised nobody would. The panic
// surfaces from Run like any body panic.
func (r *Runtime) checkLive(p *proc, kind OpKind, key string) {
	if _, gone := r.released[key]; gone {
		panic(fmt.Sprintf("sim: use after release: %v performs %v on register %q at step %d, after it was released", p.id, kind, key, r.step))
	}
}

// Decide records this C-process's decision. Subsequent steps are permitted
// (they are the paper's null steps) but the decision is final; deciding
// twice panics.
func (e *Env) Decide(v Value) {
	if !e.p.id.IsC() {
		panic(fmt.Sprintf("sim: S-process %v attempted to decide", e.p.id))
	}
	if e.p.decided {
		panic(fmt.Sprintf("sim: %v decided twice", e.p.id))
	}
	e.await(OpDecide, "")
	e.p.decided = true
	e.p.decision = v
	e.r.record(e.p, OpDecide, "", v)
}
