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
	"strconv"

	"wfadvice/internal/sim"
)

// Value is a consensus value; it must be non-nil.
type Value = any

// Block is the per-proposer register content.
type Block struct {
	MBal int   // highest round in which the owner has started phase 1
	Bal  int   // highest round in which the owner has written a value
	Val  Value // the value written in round Bal
}

// decRec wraps a decision so that the register is non-nil once decided.
type decRec struct {
	V Value
}

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
// decision register (slot nProposers = DecKey(key)). NewProposer binds it
// once, so the proposer's per-operation path never formats a key or
// resolves one again.
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
func DecodeDecision(v sim.Value) (Value, bool) {
	if d, ok := v.(decRec); ok {
		return d.V, true
	}
	return nil, false
}

// DecisionFromStore inspects a final-store snapshot for a decision without
// consuming steps (test and analyzer use only).
func DecisionFromStore(store map[string]sim.Value, key string) (Value, bool) {
	if v, ok := store[DecKey(key)].(decRec); ok {
		return v.V, true
	}
	return nil, false
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
// (NewProposer) binds its own InstanceKeys table and points both halves at
// it; a log slot (Log.Proposer) points into the tables its window of slots
// shares, so minting one binds nothing.
type Proposer struct {
	blk       sim.Regs // proposer j's block register is slot blkOff+j
	blkOff    int
	dec       sim.Regs // the decision register is slot decOff
	decOff    int
	me        int // proposer index in 0..nProposers-1
	nProps    int
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

// NewProposer returns a proposer for the given instance, binding the
// instance's registers on e (the proposer steps are tied to that backend
// handle from then on). me must be unique among the nProposers processes
// that may propose to this instance. The proposal may be nil initially and
// supplied later via SetProposal; the proposer will not enter phase 1
// without one.
func NewProposer(e sim.Ops, key string, me, nProposers int, proposal Value) *Proposer {
	return NewBoundProposer(e.Bind(InstanceKeys(key, nProposers)), me, nProposers, proposal)
}

// NewBoundProposer is NewProposer over registers the caller has bound: regs
// is an instance's InstanceKeys table for nProposers proposers. Processes
// that drive the same instance run after run build that table once and bind
// it here.
func NewBoundProposer(regs sim.Regs, me, nProposers int, proposal Value) *Proposer {
	return &Proposer{
		blk:      regs,
		dec:      regs,
		decOff:   nProposers,
		me:       me,
		nProps:   nProposers,
		proposal: proposal,
		pc:       pcPoll,
		round:    me + 1,
	}
}

// SetProposal supplies (or replaces, before phase 2) the proposer's value.
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
		p.lastWrite = Block{MBal: p.round, Bal: p.lastWrite.Bal, Val: p.lastWrite.Val}
		p.blk.Write(p.blkOff+p.me, p.lastWrite)
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
		p.blk.Write(p.blkOff+p.me, p.lastWrite)
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
		p.dec.Write(p.decOff, decRec{V: p.curVal})
		p.decision = p.curVal
		p.pc = pcDone
		return p.decision, true
	}
	return nil, false
}

// readPhaseBlock reads the next block register of the current phase and
// folds it into the phase state.
func (p *Proposer) readPhaseBlock() {
	j := p.readIdx
	p.readIdx++
	if j == p.me {
		return // our own block cannot preempt us
	}
	b, ok := p.blk.Read(p.blkOff + j).(Block)
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
