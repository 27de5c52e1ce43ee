package core

import (
	"slices"
	"sort"
	"strconv"

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
// Both sequences of instances are paxos.Logs: the admission log "adm" (slot
// t decides the t-th AdmitCmd) and, per code a, the cell log "cell/a" (slot
// s decides the view of a's step s). A replica proposes at each log's first
// unapplied slot and releases the slot's proposer once it decides.
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
	// with static positions and no admission gate. A C-process decides what
	// the code of its own index decides, so lanes codes should never decide.
	Lanes bool
}

// machinePollKeys builds the replica bookkeeping key table that its pollOnce
// reads (and the S-process ovec writes) bind to: slot i < nc is InKey(i),
// slot nc is the ovec register. The body factories build it when called, so
// a body built once binds the same table every run.
func machinePollKeys(nc int) []string {
	keys := make([]string, nc+1)
	for i := 0; i < nc; i++ {
		keys[i] = InKey(i)
	}
	keys[nc] = "ovec"
	return keys
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

// machineWindow is the slots per bound window of every machine log. A
// replica walks its logs a slot at a time and never sweeps. On the native
// backend a window of any size binds as a table with no key looked up, and a
// window of 8 ran byte-identical on sim and not decisively faster natively;
// ROADMAP item 26 sets it from a measurement of the machine's own steps.
const machineWindow = 1

const admPrefix = "adm"

func cellPrefix(a int) string   { return "cell/" + strconv.Itoa(a) }
func (c MachineConfig) pn() int { return c.NC + c.NS }
func (c MachineConfig) pos(b, attempt int) int {
	if c.Lanes {
		return b % c.K
	}
	return (b + attempt) % c.K
}

type codeState struct {
	a       auto.Automaton
	log     *paxos.Log // cell log: slot s fixes the view of step s
	applied int        // views applied; also the step index of the next write
}

// replica is the per-process deterministic reconstruction of the simulated
// machine, plus this process's views of its logs. All replicas converge
// because every transition is consensus-decided.
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

	adm        *paxos.Log // admission log: slot t fixes admCmds[t]
	admCmds    []AdmitCmd
	admitted   map[int]bool
	pendingAct []AdmitCmd
	activated  []int
	lanes      []int // the codes driveLanes drives: 0 .. min(|pars|, K)-1

	codes     map[int]*codeState
	decisions map[int]auto.Value
	lastKnown []WriteAt
}

func newReplica(cfg MachineConfig, e sim.Ops, me int, pollKeys []string) *replica {
	r := &replica{
		cfg:       cfg,
		e:         e,
		regs:      e.Bind(pollKeys),
		me:        me,
		inputs:    make([]sim.Value, cfg.NC),
		adm:       paxos.NewLog(e, admPrefix, me, cfg.pn(), machineWindow),
		admitted:  make(map[int]bool),
		codes:     make(map[int]*codeState),
		decisions: make(map[int]auto.Value),
		lastKnown: make([]WriteAt, cfg.NC),
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
	cs := &codeState{
		a:   r.cfg.Factory(i, r.inputs[i]),
		log: paxos.NewLog(r.e, cellPrefix(i), r.me, r.cfg.pn(), machineWindow),
	}
	r.codes[i] = cs
	r.lastKnown[i] = WriteAt{Step: 0, Val: cs.a.WriteValue()}
	return cs
}

// pars returns how many C-processes are known to participate, and the index
// of the pos-th smallest of them, or -1 if there are not that many. It counts
// in place: the replica asks on every step.
func (r *replica) pars(pos int) (n, at int) {
	at = -1
	for i, v := range r.inputs {
		if v == nil {
			continue
		}
		if n == pos {
			at = i
		}
		n++
	}
	return n, at
}

// leaderIs evaluates the Figure 2 leader rule for an instance keyed at base,
// using the proposer's round to rotate positions in solver mode.
func (r *replica) leaderIs(base int, p *paxos.Proposer) bool {
	attempt := p.Round() / r.cfg.pn()
	pos := r.cfg.pos(base, attempt)
	if n, at := r.pars(pos); n <= r.cfg.K && at >= 0 {
		return at == r.me // the pos-th smallest participant leads
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
	if !ok || slices.Equal(xs, r.ovec) {
		return false
	}
	r.ovec = xs
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
	for i, v := range r.inputs { // the participants, in order
		if v == nil || r.admitted[i] {
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
	return ViewCmd{View: slices.Clone(r.lastKnown)}
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
		r.decisions[a] = d
		return
	}
	if cs.applied > r.lastKnown[a].Step {
		r.lastKnown[a] = WriteAt{Step: cs.applied, Val: cs.a.WriteValue()}
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
	p := r.adm.Proposer(slot)
	if !p.HasProposal() {
		if cmd, ok := r.admissionProposal(); ok {
			p.SetProposal(cmd)
		}
	}
	lead := r.leaderIs(slot, p)
	if lead || !p.Idle() {
		progress = true
	}
	if v, ok := p.StepOp(lead); ok {
		r.adm.Release(slot)
		cmd := v.(AdmitCmd)
		r.admCmds = append(r.admCmds, cmd)
		r.admitted[cmd.Code] = true
		r.pendingAct = append(r.pendingAct, cmd)
		r.activate()
		progress = true
	}
	return r.driveCells(r.activated) || progress
}

// driveLanes drives the fixed K codes, restricted to the first
// min(|pars|, K) as in Figure 2 line 21.
func (r *replica) driveLanes() bool {
	n, _ := r.pars(0)
	for a := len(r.lanes); a < min(n, r.cfg.K); a++ { // the count only grows
		r.ensureCode(a)
		r.lanes = append(r.lanes, a)
	}
	return r.driveCells(r.lanes)
}

func (r *replica) driveCells(codes []int) bool {
	progress := false
	for _, a := range codes {
		cs := r.codes[a]
		if _, done := r.decisions[a]; cs == nil || done {
			continue
		}
		s := cs.applied
		p := cs.log.Proposer(s)
		if !p.HasProposal() { // just minted: propose the view as of now
			p.SetProposal(r.viewProposal())
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
			cs.log.Release(s)
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
// dominated decision latency. In lanes mode it is the Figure 2 simulator
// body: the clock codes never decide, so it drives the k codes until the
// step budget ends.
func (c MachineConfig) SolverCBody(i int) sim.Body {
	keys := machinePollKeys(c.NC)
	return func(e sim.Ops) {
		r := newReplica(c, e, i, keys)
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

// SolverSBody returns the Theorem 9 (and Figure 2) S-process body: publish
// the advice vector whenever it changes and help drive the machine forever.
func (c MachineConfig) SolverSBody(q int) sim.Body {
	keys := machinePollKeys(c.NC)
	return func(e sim.Ops) {
		r := newReplica(c, e, c.NC+q, keys)
		for {
			seen := e.Epoch()
			learned := false
			// Re-publishing an unchanged vector would teach the other
			// replicas nothing; skipping it keeps the ovec register quiet
			// when advice is stable (and with it the event-mode notifier).
			if xs, ok := e.QueryFD().([]int); ok && !slices.Equal(xs, r.ovec) {
				r.ovec = slices.Clone(xs)
				r.regs.Write(c.NC, r.ovec)
				learned = true
			}
			polled := r.pollOnce()
			if !r.driveAll() && !polled && !learned {
				e.AwaitEpoch(seen)
			}
		}
	}
}

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
		v, ok := paxos.DecisionFromStore(store, paxos.SlotKey(admPrefix, t))
		if !ok {
			break
		}
		tr.Admissions = append(tr.Admissions, v.(AdmitCmd))
	}
	codes := make([]int, 0, c.NC)
	if c.Lanes { // lanes mode admits nothing: its codes are 0..K-1
		for a := range c.K {
			codes = append(codes, a)
		}
	}
	for _, cmd := range tr.Admissions {
		codes = append(codes, cmd.Code)
	}
	for _, a := range codes {
		s := 0
		for {
			if _, ok := paxos.DecisionFromStore(store, paxos.SlotKey(cellPrefix(a), s)); !ok {
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
		maxC = max(maxC, (t+1)-len(cmd.Just))
	}
	return maxC
}
