// Package paxos implements single-decree consensus over atomic read/write
// registers in the style of Disk Paxos (Gafni & Lamport), used as the
// "leader-based consensus algorithm" of Figure 2 in "Wait-Freedom with
// Advice". Safety (agreement and validity) holds unconditionally, no matter
// how many processes believe they are the leader; termination requires that
// eventually a single live proposer keeps proposing uncontested — exactly
// the property the paper obtains from Ω-like advice (a stabilized vector-Ωk
// position).
//
// Each proposer owns one block register per instance; a round is owned by
// one proposer (rounds are partitioned modulo the proposer count). A
// proposer advances through the classic two phases, one shared-memory
// operation per StepOp call, so callers can interleave many instances — the
// "perform one more step of cons_{j,ℓ}" of Figure 2 line 22.
package paxos

import (
	"fmt"
	"strconv"

	"wfadvice/internal/sim"
)

// Value is a consensus value; it must be non-nil.
type Value = any

// Block is the per-proposer register content. A block register holds a
// *Block, which is never written again once it is published.
type Block struct {
	MBal int   // highest round in which the owner has started phase 1
	Bal  int   // highest round in which the owner has written a value
	Val  Value // the value written in round Bal
}

// String renders the block by content, as fmt renders a Block value: a
// trace prints a register's pointer by what it points to, but a pointer
// nested in it — a *kv.Batch as Val — by its address, which no replay
// reproduces.
func (b Block) String() string { return fmt.Sprintf("{%d %d %v}", b.MBal, b.Bal, b.Val) }

// GoString renders the block by content for the explorer's state hash
// (%#v), for the reason String does.
func (b Block) GoString() string {
	return fmt.Sprintf("paxos.Block{MBal:%d, Bal:%d, Val:%#v}", b.MBal, b.Bal, b.Val)
}

// phase1Blocks holds Block{MBal: r} at index r: the phase-1 write of a
// proposer that has never accepted a value, which is every phase-1 write of
// an uncontended instance. Register values are immutable, so every such
// write stores a pointer to its round's entry and costs no object.
var phase1Blocks = func() (t [64]Block) {
	for r := range t {
		t[r].MBal = r
	}
	return t
}()

// The register keys of instance key are key+blkInfix+i for proposer i's
// block and key+decSuffix for the decision; the per-window key tables of a
// Log (log.go) append the same pieces.
const (
	blkInfix  = "/blk/"
	decSuffix = "/dec"
)

// BlockKey returns the register key of proposer i's block for instance key.
func BlockKey(key string, i int) string { return key + blkInfix + strconv.Itoa(i) }

// DecKey returns the decision register key for instance key.
func DecKey(key string) string { return key + decSuffix }

// InstanceKeys returns the bound key table of one consensus instance: one
// block register per proposer (slot i = BlockKey(key, i)) followed by the
// decision register (slot nProposers = DecKey(key)). The caller binds it
// once for BoundProposer, so the proposer's per-operation path never
// formats a key or resolves one again.
func InstanceKeys(key string, nProposers int) []string {
	keys := make([]string, nProposers+1)
	for i := 0; i < nProposers; i++ {
		keys[i] = BlockKey(key, i)
	}
	keys[nProposers] = DecKey(key)
	return keys
}

// DecodeDecision interprets a raw value read from an instance's DecKey
// register. Batched poll loops read many decision registers in one
// sim.Ops.ReadMany and decode each slot with it.
//
// The register holds the decided value itself, and nil means undecided. That
// rests on one invariant: no proposer decides nil. A proposer does not enter
// phase 1 without a proposal, and the value it carries into phase 2 is its
// proposal or one an earlier phase 2 carried, so by induction every value
// written to a decision register is non-nil.
func DecodeDecision(v sim.Value) (Value, bool) { return v, v != nil }

// DecisionFromStore inspects a final-store snapshot for a decision without
// consuming steps (test and analyzer use only).
func DecisionFromStore(store map[string]sim.Value, key string) (Value, bool) {
	return DecodeDecision(store[DecKey(key)])
}

// program counters of the proposer state machine.
const (
	pcPoll = iota
	pcP1Write
	pcP1Read
	pcP2Write
	pcP2Read
	pcDecWrite
	pcDone
)

// Proposer drives one consensus instance for one process. Each StepOp call
// performs at most one shared-memory operation, against registers bound
// before the first step, so stepping an instance never formats or
// re-resolves a register key. A Proposer is a view: it addresses its
// instance inside two bound tables by offset. A stand-alone instance
// (BoundProposer) points both halves at its InstanceKeys slots; a log
// slot (Log.Proposer) points into the tables its window of slots shares, so
// minting one binds nothing.
type Proposer struct {
	blk       sim.Regs // proposer j's block register is slot blkOff+j
	blkOff    int
	dec       sim.Regs // the decision register is slot decOff
	decOff    int
	me        int // proposer index in 0..nProposers-1
	nProps    int
	blocks    *sim.Slab[Block] // where a Log's proposer boxes its blocks; nil for BoundProposer
	proposal  Value
	pc        int
	round     int
	readIdx   int
	maxSeen   int   // highest foreign MBal observed in the current phase
	pickBal   int   // highest Bal among blocks read in phase 1
	pickVal   Value // value of pickBal
	curVal    Value // value carried through phase 2
	decision  Value
	lastWrite Block // our own block content (we are its only writer)
}

// BoundProposer returns a proposer, as a value, for the instance whose
// InstanceKeys table the caller has bound as regs from slot off on (0 for a
// table of one instance; several instances may share one table, end to end);
// me must be unique among its nProposers. Callers that drive the same
// instance run after run bind that table once and may keep the proposer in a
// local array: no method lets the receiver escape. The proposal may be nil
// until SetProposal supplies it; the proposer will not enter phase 1 without
// one.
func BoundProposer(regs sim.Regs, off, me, nProposers int, proposal Value) Proposer {
	return Proposer{
		blk:      regs,
		blkOff:   off,
		dec:      regs,
		decOff:   off + nProposers,
		me:       me,
		nProps:   nProposers,
		proposal: proposal,
		pc:       pcPoll,
		round:    me + 1,
	}
}

// SetProposal supplies the proposer's value if it has none yet; a value
// already supplied is kept.
func (p *Proposer) SetProposal(v Value) {
	if p.proposal == nil {
		p.proposal = v
	}
}

// HasProposal reports whether a proposal has been supplied.
func (p *Proposer) HasProposal() bool { return p.proposal != nil }

// Decided reports the instance's decision once this proposer has observed
// or written it.
func (p *Proposer) Decided() (Value, bool) {
	if p.pc == pcDone {
		return p.decision, true
	}
	return nil, false
}

// Round returns the current round, for observability.
func (p *Proposer) Round() int { return p.round }

// Idle reports whether the proposer is merely polling the decision register
// (not mid-phase and not done): a StepOp(false) in this state is a pure
// poll with no effect on the instance. Poll loops use it to decide whether
// an iteration made progress or can park.
func (p *Proposer) Idle() bool { return p.pc == pcPoll }

// StepOp performs one shared-memory operation of the instance. lead reports
// whether this process currently believes it should drive the instance;
// non-leaders only poll the decision register. StepOp returns the decision
// when known.
func (p *Proposer) StepOp(lead bool) (Value, bool) {
	switch p.pc {
	case pcDone:
		return p.decision, true

	case pcPoll:
		if v, ok := DecodeDecision(p.dec.Read(p.decOff)); ok {
			p.decision = v
			p.pc = pcDone
			return v, true
		}
		if lead && p.proposal != nil {
			p.pc = pcP1Write
		}
		return nil, false

	case pcP1Write:
		p.lastWrite.MBal = p.round
		p.writeBlock()
		p.readIdx, p.maxSeen, p.pickBal, p.pickVal = 0, 0, 0, nil
		p.pc = pcP1Read
		return nil, false

	case pcP1Read:
		p.readPhaseBlock()
		if p.readIdx < p.nProps {
			return nil, false
		}
		if p.maxSeen > p.round {
			p.abort()
			return nil, false
		}
		if p.lastWrite.Bal > p.pickBal {
			p.pickBal, p.pickVal = p.lastWrite.Bal, p.lastWrite.Val
		}
		if p.pickBal > 0 {
			p.curVal = p.pickVal
		} else {
			p.curVal = p.proposal
		}
		p.pc = pcP2Write
		return nil, false

	case pcP2Write:
		p.lastWrite = Block{MBal: p.round, Bal: p.round, Val: p.curVal}
		p.writeBlock()
		p.readIdx, p.maxSeen = 0, 0
		p.pc = pcP2Read
		return nil, false

	case pcP2Read:
		p.readPhaseBlock()
		if p.readIdx < p.nProps {
			return nil, false
		}
		if p.maxSeen > p.round {
			p.abort()
			return nil, false
		}
		p.pc = pcDecWrite
		return nil, false

	case pcDecWrite:
		p.dec.Write(p.decOff, p.curVal)
		p.decision = p.curVal
		p.pc = pcDone
		return p.decision, true
	}
	return nil, false
}

// writeBlock publishes lastWrite in this proposer's block register: a
// phase-1 block of one that has never accepted a value from the package
// table, any other into the Log's slab, or for a stand-alone proposer into
// a box of its own.
func (p *Proposer) writeBlock() {
	var b *Block
	switch {
	case p.lastWrite.Bal == 0 && p.lastWrite.MBal < len(phase1Blocks):
		b = &phase1Blocks[p.lastWrite.MBal]
	case p.blocks != nil:
		b = p.blocks.One(p.lastWrite)
	default:
		b = new(Block)
		*b = p.lastWrite
	}
	p.blk.Write(p.blkOff+p.me, b)
}

// readPhaseBlock reads the next block register of the current phase and
// folds it into the phase state.
func (p *Proposer) readPhaseBlock() {
	j := p.readIdx
	p.readIdx++
	if j == p.me {
		return // our own block cannot preempt us
	}
	b, ok := p.blk.Read(p.blkOff + j).(*Block)
	if !ok {
		return
	}
	if b.MBal > p.maxSeen {
		p.maxSeen = b.MBal
	}
	if b.Bal > p.pickBal {
		p.pickBal, p.pickVal = b.Bal, b.Val
	}
}

// abort moves to the smallest owned round above everything observed and
// restarts from the decision poll (so a decision by the preempting round is
// noticed before re-proposing).
func (p *Proposer) abort() {
	r := p.round
	for r <= p.maxSeen {
		r += p.nProps
	}
	p.round = r
	p.pc = pcPoll
}
