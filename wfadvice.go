// Package wfadvice is a Go implementation of the external-failure-detection
// (EFD) model and results of "Wait-Freedom with Advice" (Delporte-Gallet,
// Fauconnier, Gafni, Kuznetsov; PODC 2012).
//
// The package re-exports the slice of the library's layers that the
// Example functions, the root benchmarks and benchmark/ are written
// against — every name here has a caller there; the rest of the system
// (the schedule explorer, the chaos wrappers, the per-layer metric gates,
// ...) is reached through the cmd/ binaries and lives under internal/:
//
//   - task constructors (consensus, k-set agreement, renaming) and vectors
//   - failure patterns and detectors (Ω, vector-Ωk, the §2.3 counterexample)
//   - the step-level shared-memory runtime for EFD systems: Config,
//     NewRuntime, schedulers, plus trace analyzers (CheckTask, DecidedAll)
//   - collect automata and the Borowsky–Gafni substrate
//   - the solvers and reductions: the direct vector-Ωk agreement solver,
//     the generic Theorem 9 machine, the Figure 1 ¬Ωk extraction, and the
//     Theorem 7 puzzle pipeline
//   - the native hardware-speed backend: the same algorithms on real
//     goroutines over atomics-backed registers, with live advice, crash
//     injection, a post-hoc checker, the two stress harnesses and the
//     replicated KV they drive
//   - the experiment engine regenerating the E-tables.
//
// See README.md for a quickstart and DESIGN.md for the system inventory.
package wfadvice

import (
	"wfadvice/internal/auto"
	"wfadvice/internal/bg"
	"wfadvice/internal/core"
	"wfadvice/internal/exp"
	"wfadvice/internal/fdet"
	"wfadvice/internal/ids"
	"wfadvice/internal/kv"
	"wfadvice/internal/native"
	"wfadvice/internal/paxos"
	"wfadvice/internal/sim"
	"wfadvice/internal/task"
	"wfadvice/internal/vec"
	"wfadvice/internal/wfree"
)

// Proc identifies a process (C or S side).
type Proc = ids.Proc

// C returns the identity of the i-th computation process (zero-based).
func C(i int) Proc { return ids.C(i) }

// Task and vector constructors.
var (
	NewConsensus       = task.NewConsensus
	NewSetAgreement    = task.NewSetAgreement
	NewSubsetAgreement = task.NewSubsetAgreement
	NewRenaming        = task.NewRenaming
	NewVector          = vec.New
	VectorOf           = vec.Of
)

// Failure detection.
type (
	// Pattern is a failure pattern over the S-processes.
	Pattern = fdet.Pattern
	// Omega is the Ω leader detector (≡ ¬Ω1).
	Omega = fdet.Omega
	// VectorOmegaK is the vector form of ¬Ωk consumed by Figure 2.
	VectorOmegaK = fdet.VectorOmegaK
	// FirstAlive is the §2.3 separation detector.
	FirstAlive = fdet.FirstAlive
)

// Failure-pattern constructors and the Figure 1 sampling substrate.
var (
	NewPattern         = fdet.NewPattern
	FailureFree        = fdet.FailureFree
	BuildDAG           = fdet.BuildDAG
	RoundRobinSchedule = fdet.RoundRobinSchedule
	// DetectorByName resolves a detector family by its CLI name.
	DetectorByName = fdet.ByName
)

// Runtime.
type (
	// Config describes an EFD system to execute.
	Config = sim.Config
	// Ops is the backend-independent operation surface of a process body;
	// both sim.Env and native.Env implement it.
	Ops = sim.Ops
	// Value is a shared-register value.
	Value = sim.Value
	// Regs is a bound register handle (Ops.Bind): a key table resolved once
	// into slot-indexed operations — the native backend's allocation-free
	// hot path, step-shape-neutral on the sim backend.
	Regs = sim.Regs
	// Body is a process program.
	Body = sim.Body
	// Result captures a finished run.
	Result = sim.Result
	// Scheduler picks the next process to step.
	Scheduler = sim.Scheduler
	// RoundRobin is the canonical fair scheduler.
	RoundRobin = sim.RoundRobin
	// PauseWindow suspends one process for a window (wait-freedom demos).
	PauseWindow = sim.PauseWindow
	// Exclude removes processes from scheduling forever.
	Exclude = sim.Exclude
	// Personified couples C-scheduling to S-liveness (§2.3).
	Personified = sim.Personified
	// StopWhenDecided ends a run once every C-process decided.
	StopWhenDecided = sim.StopWhenDecided
)

// Runtime constructors and analyzers.
var (
	NewRuntime     = sim.New
	NewRandomSched = sim.NewRandom
	CheckTask      = sim.CheckTask
	DecidedAll     = sim.DecidedAll
)

// Automaton is a restricted algorithm: a collect automaton (write + collect
// per step).
type Automaton = auto.Automaton

// Automaton constructors and their substrate.
var (
	// NewAutoSystem executes automata deterministically in-process.
	NewAutoSystem   = auto.NewSystem
	NewRenamingFig4 = wfree.NewRenaming
	RunBG           = bg.Run
)

// Solvers and reductions.
type (
	// DirectConfig is the direct vector-Ωk agreement solver.
	DirectConfig = core.DirectConfig
	// MachineConfig is the generic Theorem 9 solver (and Figure 2 lanes).
	MachineConfig = core.MachineConfig
	// WitnessConfig configures the Figure 1 extraction witness.
	WitnessConfig = core.WitnessConfig
	// PuzzleConfig configures the Theorem 7 pipeline.
	PuzzleConfig = core.PuzzleConfig
	// DirectSimAlg is the direct solver in simulable form.
	DirectSimAlg = core.DirectSimAlg
)

// Solver entry points.
var (
	VectorLeader         = core.VectorLeader
	OmegaLeader          = core.OmegaLeader
	ExtractWitness       = core.ExtractWitness
	CheckAntiOmegaStream = core.CheckAntiOmegaStream
	RunPuzzle            = core.RunPuzzle
	InKey                = core.InKey
)

// Native hardware-speed backend: the same sim.Ops programs on real
// goroutines over atomics-backed registers, with a live failure-detector
// service, crash injection, a post-hoc decision checker and the stress
// harnesses.
type (
	// NativeConfig describes a system to execute natively; its
	// process-facing fields are shared with Config, so the same CBody/SBody
	// factories drive both backends.
	NativeConfig = native.Config
	// NativeRuntime executes systems at hardware speed, one Run per arming:
	// NewNativeRuntime arms it for its first, Reset for every later one.
	NativeRuntime = native.Runtime
	// StressOptions configures a native stress run; StressReport is its
	// aggregate outcome (throughput, latency percentiles, verdicts).
	StressOptions = native.StressOptions
	StressReport  = native.StressReport
	// KVStressOptions configures a clerk workload (open loop at Rate, closed
	// loop at Rate 0) against the replicated KV service (kv over a
	// multi-Paxos log); its report is the shared StressReport shape, so
	// the CI checks read kv rows like any other scenario.
	KVStressOptions = core.KVStressOptions
	// KVReplicaConfig and KVClerkConfig are the service and session halves
	// of the replicated KV protocol, written as backend-independent bodies.
	KVReplicaConfig = kv.ReplicaConfig
	KVClerkConfig   = kv.ClerkConfig
	// KVSession is one clerk's observed operation history, read through
	// its Ops, Len and At methods. A session a NativeKVStress clerk streamed
	// to its run's checker holds only its last chunk: Len counts every
	// record, Ops and At cover only the records it still holds.
	KVSession = kv.Session
	// PaxosLog chains single-decree consensus instances into a replicated
	// log with a sliding bound decision-register window.
	PaxosLog = paxos.Log
	// Scenario is one task + algorithm + advice configuration executable on
	// either backend ("two backends, one algorithm surface").
	Scenario = core.Scenario
	// ScenarioParams selects and sizes a Scenario.
	ScenarioParams = core.ScenarioParams
)

// Native backend entry points.
var (
	// NewNativeRuntime validates a NativeConfig and builds a runtime armed
	// to run it (a zero NativeRuntime and its first Reset).
	NewNativeRuntime = native.New
	// NativeCheck is the post-hoc checker: ∆ plus the wait-freedom
	// obligation that every correct C-process decides.
	NativeCheck = native.Check
	// NativeStress hammers one scenario with back-to-back native instances,
	// each worker re-arming one runtime.
	NativeStress = native.Stress
	// NativeKVStress runs the replicated KV under clerk load with optional
	// leader crash injection.
	NativeKVStress = core.KVStress
	// NewPaxosLog builds one process's view of a replicated consensus log,
	// binding registers the default 64 slots at a time.
	NewPaxosLog = func(e Ops, prefix string, me, nProposers int) *PaxosLog {
		return paxos.NewLog(e, prefix, me, nProposers, 0)
	}
	// KVCheckSessions replays the version order the service reported,
	// sealing whole sessions into the one streaming check.
	KVCheckSessions = kv.CheckSessions
	// NewScenario builds a backend-independent scenario.
	NewScenario = core.NewScenario
)

// AdviceEvent is the native advice mode in which waiting pollers park on the
// change epoch and wake on advice publications, register writes and the
// heartbeat (under the default, tick, they yield). Advice itself is published
// the same way under both: each history transition as its deadline passes.
const AdviceEvent = native.AdviceEvent

// NativeReasonAllDecided is the native run end reason "every spawned
// C-process decided".
const NativeReasonAllDecided = native.ReasonAllDecided

// ExpOptions configures an experiment engine (parallelism, root seed,
// reduced -short grids).
type ExpOptions = exp.Options

// Experiment harness entry points.
var (
	// Experiments returns the experiments in cell-generator form.
	Experiments = exp.Experiments
	// NewExpEngine builds a parallel experiment engine.
	NewExpEngine = exp.NewEngine
)
