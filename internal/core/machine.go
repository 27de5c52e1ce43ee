package core

import (
	"fmt"
	"sort"

	"wfadvice/internal/auto"
	"wfadvice/internal/paxos"
	"wfadvice/internal/sim"
)

// This file implements the generic Theorem 9 solver and its Figure 2 /
// Theorem 14 special case.
//
// Theorem 9: every k-concurrently solvable task T is solvable in EFD with
// ¬Ωk (presented, as in §4.2, through the equivalent vector-Ωk form). The
// construction simulates the k-concurrent restricted algorithm A for T as a
// replicated machine: every step of every simulated code is fixed by a
// dedicated consensus instance (paxos), so the simulated run is identical at
// all replicas; an admission gate — itself a sequence of consensus
// instances — admits a new code only when fewer than k admitted codes are
// undecided, so the simulated run is k-concurrent by construction; and
// consensus instances take their leader hints from the Figure 2 rule (the
// j-th smallest participant while at most k processes participate, the j-th
// vector-Ωk position afterwards). Any process can drive any code, so a
// C-process that stops taking steps does not stall its code — and a
// C-process that keeps taking steps finds its code's decision no matter what
// the others do. That is wait-freedom with advice.
//
// Deviation from the paper, recorded in DESIGN.md: the paper layers extended
// BG-simulation inside the Figure 2 k-code simulation; here each simulated
// step is already a consensus instance, which subsumes the abort machinery.
// Instance liveness under a single stabilized vector position is obtained by
// rotating the position a stuck instance is keyed to as its round number
// escalates, so the stabilized position eventually owns a round of every
// open instance. With flapping positions the rotation makes termination
// probabilistic rather than worst-case deterministic — the experiments
// exercise it across seeds.
//
// Figure 2 / Theorem 14 ("lanes" mode): the same machine with a fixed set of
// k codes, no admission gate, and static code→position keying reproduces the
// Figure 2 simulation itself: at most min(k, ℓ) codes take steps when ℓ
// processes participate, and at least one code takes infinitely many steps.

// MachineConfig configures a replicated-simulation run.
type MachineConfig struct {
	NC, NS int
	K      int
	// Factory builds simulated code i with its task input (nil in lanes
	// mode, where codes are input-less).
	Factory func(i int, input sim.Value) auto.Automaton
	// Lanes selects Figure 2 / Theorem 14 mode: exactly K pre-admitted codes
	// with static positions and no admission gate.
	Lanes bool
	// PollKeys is the precomputed bookkeeping key table — the NC input
	// registers followed by the ovec register — that every replica binds its
	// pollOnce reads (and the S-process ovec writes) to. core.Scenario emits
	// it once per scenario; nil is computed per replica, so directly
	// constructed configs keep working unchanged.
	PollKeys []string
}

// machinePollKeys builds the replica bookkeeping key table: slot i < nc is
// InKey(i), slot nc is the ovec register.
func machinePollKeys(nc int) []string {
	keys := make([]string, nc+1)
	for i := 0; i < nc; i++ {
		keys[i] = InKey(i)
	}
	keys[nc] = "ovec"
	return keys
}

func (c MachineConfig) pollKeys() []string {
	if c.PollKeys != nil {
		return c.PollKeys
	}
	return machinePollKeys(c.NC)
}

// WriteAt is a versioned simulated-register value carried inside decided
// views; Step is -1 for "never written".
type WriteAt struct {
	Step int
	Val  auto.Value
}

// AdmitCmd is the decision of an admission slot: admit Code, justified by
// the Just codes having already decided (the gate invariant evidence).
type AdmitCmd struct {
	Code int
	Just []int
}

// ViewCmd is the decision of a cell instance: the collect that the code's
// next step observes.
type ViewCmd struct {
	View []WriteAt
}

func admKey(t int) string       { return fmt.Sprintf("adm/%d", t) }
func cellKey(a, s int) string   { return fmt.Sprintf("cell/%d/%d", a, s) }
func (c MachineConfig) pn() int { return c.NC + c.NS }
func (c MachineConfig) pos(b, attempt int) int {
	if c.Lanes {
		return b % c.K
	}
	return (b + attempt) % c.K
}

type cellID struct{ a, s int }

type codeState struct {
	a        auto.Automaton
	applied  int // views applied; also the step index of the pending write
	pending  auto.Value
	decided  bool
	decision auto.Value
}

// replica is the per-process deterministic reconstruction of the simulated
// machine, plus this process's proposers. All replicas converge because
// every transition is consensus-decided.
type replica struct {
	cfg MachineConfig
	e   sim.Ops
	// regs is the bound bookkeeping table (input slots 0..NC-1, ovec slot
	// NC): every pollOnce read and ovec write goes through it, so the
	// replica's polling loop resolves no keys after construction.
	regs sim.Regs
	me   int // proposer index: C i → i, S q → NC+q

	inputs   []sim.Value
	inCursor int
	pollTick int
	ovec     []int

	admCmds     []AdmitCmd
	admitted    map[int]bool
	pendingAct  []AdmitCmd
	activated   []int
	activatedIn map[int]bool

	codes     map[int]*codeState
	decisions map[int]auto.Value
	lastKnown []WriteAt

	admProp   *paxos.Proposer
	cellProps map[cellID]*paxos.Proposer
}

func newReplica(cfg MachineConfig, e sim.Ops, me int) *replica {
	r := &replica{
		cfg:         cfg,
		e:           e,
		regs:        e.Bind(cfg.pollKeys()),
		me:          me,
		inputs:      make([]sim.Value, cfg.NC),
		admitted:    make(map[int]bool),
		activatedIn: make(map[int]bool),
		codes:       make(map[int]*codeState),
		decisions:   make(map[int]auto.Value),
		lastKnown:   make([]WriteAt, cfg.NC),
		cellProps:   make(map[cellID]*paxos.Proposer),
	}
	for i := range r.lastKnown {
		r.lastKnown[i] = WriteAt{Step: -1}
	}
	return r
}

func (r *replica) ensureCode(i int) *codeState {
	if cs := r.codes[i]; cs != nil {
		return cs
	}
	cs := &codeState{a: r.cfg.Factory(i, r.inputs[i])}
	cs.pending = cs.a.WriteValue()
	r.codes[i] = cs
	r.lastKnown[i] = WriteAt{Step: 0, Val: cs.pending}
	return cs
}

// pars returns the sorted indices of C-processes known to participate.
func (r *replica) pars() []int {
	out := make([]int, 0, r.cfg.NC)
	for i, v := range r.inputs {
		if v != nil {
			out = append(out, i)
		}
	}
	return out
}

// leaderIs evaluates the Figure 2 leader rule for an instance keyed at base,
// using the proposer's round to rotate positions in solver mode.
func (r *replica) leaderIs(base int, p *paxos.Proposer) bool {
	attempt := p.Round() / r.cfg.pn()
	pos := r.cfg.pos(base, attempt)
	pars := r.pars()
	if len(pars) <= r.cfg.K && pos < len(pars) {
		return pars[pos] == r.me // the pos-th smallest participant leads
	}
	if pos < len(r.ovec) {
		return r.cfg.NC+r.ovec[pos] == r.me // the vector position leads
	}
	return false
}

// pollOnce performs one bookkeeping read — an unknown input register or the
// advice vector, in rotation — and reports whether it learned anything new
// (a published input, a changed advice vector).
func (r *replica) pollOnce() bool {
	ovecSlot := r.cfg.NC
	r.pollTick++
	if r.pollTick%2 == 0 && r.me < r.cfg.NC { // S-processes learn ovec from their own detector
		return r.readOvec(ovecSlot)
	}
	for t := 0; t < r.cfg.NC; t++ {
		b := (r.inCursor + t) % r.cfg.NC
		if r.inputs[b] != nil {
			continue
		}
		r.inCursor = (b + 1) % r.cfg.NC
		if v := r.regs.Read(b); v != nil {
			r.inputs[b] = v
			return true
		}
		return false
	}
	if r.me < r.cfg.NC {
		return r.readOvec(ovecSlot)
	}
	r.regs.Read(ovecSlot) // keep step pacing uniform
	return false
}

// readOvec refreshes the replica's advice vector from the ovec register and
// reports whether it changed.
func (r *replica) readOvec(slot int) bool {
	xs, ok := r.regs.Read(slot).([]int)
	if !ok || intsEqual(xs, r.ovec) {
		return false
	}
	r.ovec = xs
	return true
}

func intsEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// activate admits decided admissions in slot order once their justification
// (decided codes and a known input) is visible locally.
func (r *replica) activate() {
	for len(r.pendingAct) > 0 {
		cmd := r.pendingAct[0]
		if r.inputs[cmd.Code] == nil {
			return
		}
		for _, j := range cmd.Just {
			if _, ok := r.decisions[j]; !ok {
				return
			}
		}
		r.pendingAct = r.pendingAct[1:]
		r.activated = append(r.activated, cmd.Code)
		r.activatedIn[cmd.Code] = true
		r.ensureCode(cmd.Code)
	}
}

// admissionProposal returns the next admission command if the gate is open:
// fewer than K admitted codes undecided and some participant unadmitted.
func (r *replica) admissionProposal() (AdmitCmd, bool) {
	undecided := 0
	for _, cmd := range r.admCmds {
		if _, ok := r.decisions[cmd.Code]; !ok {
			undecided++
		}
	}
	if undecided >= r.cfg.K {
		return AdmitCmd{}, false
	}
	for _, i := range r.pars() {
		if r.admitted[i] {
			continue
		}
		just := make([]int, 0, len(r.decisions))
		for c := range r.decisions {
			just = append(just, c)
		}
		sort.Ints(just)
		return AdmitCmd{Code: i, Just: just}, true
	}
	return AdmitCmd{}, false
}

// viewProposal snapshots the replica's knowledge as a collect for code a.
func (r *replica) viewProposal() ViewCmd {
	v := make([]WriteAt, len(r.lastKnown))
	copy(v, r.lastKnown)
	return ViewCmd{View: v}
}

// applyCell advances code a with its decided step view.
func (r *replica) applyCell(a int, cmd ViewCmd) {
	cs := r.codes[a]
	view := make(auto.View, len(cmd.View))
	for b, w := range cmd.View {
		if w.Step > r.lastKnown[b].Step {
			r.lastKnown[b] = w
		}
		if w.Step >= 0 {
			view[b] = w.Val
		}
	}
	cs.a.OnView(view)
	cs.applied++
	if d, ok := cs.a.Decided(); ok {
		cs.decided, cs.decision = true, d
		r.decisions[a] = d
		return
	}
	cs.pending = cs.a.WriteValue()
	if cs.applied > r.lastKnown[a].Step {
		r.lastKnown[a] = WriteAt{Step: cs.applied, Val: cs.pending}
	}
}

// driveAll advances the admission slot (solver mode) and every open cell by
// one shared-memory operation each. It reports whether the iteration made
// progress: this replica led an instance, had a phase in flight, or applied
// a decision. An iteration without progress performed only pure polls — the
// replica can park until something changes.
func (r *replica) driveAll() bool {
	r.activate()
	if r.cfg.Lanes {
		return r.driveLanes()
	}
	progress := false
	slot := len(r.admCmds)
	if r.admProp == nil {
		r.admProp = paxos.NewProposer(r.e, admKey(slot), r.me, r.cfg.pn(), nil)
	}
	if !r.admProp.HasProposal() {
		if cmd, ok := r.admissionProposal(); ok {
			r.admProp.SetProposal(cmd)
		}
	}
	lead := r.leaderIs(slot, r.admProp)
	if lead || !r.admProp.Idle() {
		progress = true
	}
	if v, ok := r.admProp.StepOp(lead); ok {
		cmd := v.(AdmitCmd)
		r.admCmds = append(r.admCmds, cmd)
		r.admitted[cmd.Code] = true
		r.pendingAct = append(r.pendingAct, cmd)
		r.admProp = nil
		r.activate()
		progress = true
	}
	return r.driveCells(r.activated) || progress
}

// driveLanes drives the fixed K codes, restricted to the first
// min(|pars|, K) as in Figure 2 line 21.
func (r *replica) driveLanes() bool {
	limit := len(r.pars())
	if limit > r.cfg.K {
		limit = r.cfg.K
	}
	codes := make([]int, 0, limit)
	for a := 0; a < limit; a++ {
		r.ensureCode(a)
		codes = append(codes, a)
	}
	return r.driveCells(codes)
}

func (r *replica) driveCells(codes []int) bool {
	progress := false
	for _, a := range codes {
		cs := r.codes[a]
		if cs == nil || cs.decided {
			continue
		}
		cid := cellID{a: a, s: cs.applied}
		p := r.cellProps[cid]
		if p == nil {
			p = paxos.NewProposer(r.e, cellKey(a, cs.applied), r.me, r.cfg.pn(), r.viewProposal())
			r.cellProps[cid] = p
		}
		base := a // lanes mode: Figure 2's static code→position keying
		if !r.cfg.Lanes {
			base = a + cs.applied // solver mode: spread cells over positions
		}
		lead := r.leaderIs(base, p)
		if lead || !p.Idle() {
			progress = true
		}
		if v, ok := p.StepOp(lead); ok {
			delete(r.cellProps, cid)
			r.applyCell(a, v.(ViewCmd))
			progress = true
		}
	}
	return progress
}

// SolverCBody returns the Theorem 9 C-process body: publish the input, then
// help drive the machine until the replica shows this process's own code
// decided. An iteration that neither learned anything (pollOnce) nor
// advanced any instance (driveAll) was pure polling, so the replica waits
// before the next one; without the wait such replicas spin through entire
// scheduler quanta while the one replica that is leader waits to be
// scheduled — on small machines that starvation, not the algorithm,
// dominated decision latency.
func (c MachineConfig) SolverCBody(i int) sim.Body {
	return func(e sim.Ops) {
		r := newReplica(c, e, i)
		r.regs.Write(i, e.Input())
		r.inputs[i] = e.Input()
		for {
			if d, ok := r.decisions[i]; ok {
				e.Decide(d)
				return
			}
			seen := e.Epoch()
			polled := r.pollOnce()
			if !r.driveAll() && !polled {
				e.AwaitEpoch(seen)
			}
		}
	}
}

// SolverSBody returns the Theorem 9 S-process body: publish the advice
// vector whenever it changes and help drive the machine forever.
func (c MachineConfig) SolverSBody(q int) sim.Body {
	return func(e sim.Ops) {
		r := newReplica(c, e, c.NC+q)
		for {
			seen := e.Epoch()
			learned := false
			// Re-publishing an unchanged vector would teach the other
			// replicas nothing; skipping it keeps the ovec register quiet
			// when advice is stable (and with it the event-mode notifier).
			if xs, ok := e.QueryFD().([]int); ok && !intsEqual(xs, r.ovec) {
				cp := make([]int, len(xs))
				copy(cp, xs)
				r.ovec = cp
				r.regs.Write(c.NC, cp)
				learned = true
			}
			polled := r.pollOnce()
			if !r.driveAll() && !polled && !learned {
				e.AwaitEpoch(seen)
			}
		}
	}
}

// LanesCBody returns the Figure 2 simulator body for C-process i: register
// participation, then drive the k codes; the body never decides (the
// simulated codes carry the payload) and runs until the step budget ends.
func (c MachineConfig) LanesCBody(i int) sim.Body {
	return func(e sim.Ops) {
		r := newReplica(c, e, i)
		r.regs.Write(i, e.Input())
		r.inputs[i] = e.Input()
		for {
			seen := e.Epoch()
			polled := r.pollOnce()
			if !r.driveAll() && !polled {
				e.AwaitEpoch(seen)
			}
		}
	}
}

// LanesSBody is the S-process body for Figure 2 mode.
func (c MachineConfig) LanesSBody(q int) sim.Body { return c.SolverSBody(q) }

// MachineTrace summarizes the decided machine history recovered from a
// run's final store: admissions in slot order and, per code, the number of
// decided steps. Tests and experiments use it to audit the simulated run.
type MachineTrace struct {
	Admissions []AdmitCmd
	CellSteps  map[int]int
}

// Replay reconstructs the decided machine history from a final store.
func (c MachineConfig) Replay(store map[string]sim.Value) MachineTrace {
	tr := MachineTrace{CellSteps: make(map[int]int)}
	for t := 0; ; t++ {
		v, ok := paxos.DecisionFromStore(store, admKey(t))
		if !ok {
			break
		}
		tr.Admissions = append(tr.Admissions, v.(AdmitCmd))
	}
	codes := make([]int, 0, c.NC)
	if c.Lanes {
		for a := 0; a < c.K; a++ {
			codes = append(codes, a)
		}
	} else {
		for _, cmd := range tr.Admissions {
			codes = append(codes, cmd.Code)
		}
	}
	for _, a := range codes {
		s := 0
		for {
			if _, ok := paxos.DecisionFromStore(store, cellKey(a, s)); !ok {
				break
			}
			s++
		}
		tr.CellSteps[a] = s
	}
	return tr
}

// ConcurrencyBound returns an upper bound on the simulated run's concurrency
// implied by the admission justifications: when slot t activates, at most
// (t+1) − |Just_t| codes can be undecided. The Theorem 9 gate keeps this at
// K or below.
func (tr MachineTrace) ConcurrencyBound() int {
	maxC := 0
	for t, cmd := range tr.Admissions {
		c := (t + 1) - len(cmd.Just)
		if c > maxC {
			maxC = c
		}
	}
	return maxC
}
