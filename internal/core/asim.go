package core

import (
	"wfadvice/internal/auto"
	"wfadvice/internal/bg"
	"wfadvice/internal/fdet"
	"wfadvice/internal/vec"
)

// This file implements Asim (§4.1, Appendix B): the restricted algorithm in
// which the C-processes perform two tasks in parallel — their own A^C codes,
// and a BG-style simulation of the S-part A^S driven by failure-detector
// values taken from a sampling DAG instead of a live detector. Asim is what
// the Figure 1 exploration runs, locally and deterministically, inside each
// S-process of the reduction algorithm.
//
// A C-process step alternates between one step of its own code and one
// safe-agreement action toward the S-codes. Stalling a C-process between its
// level-1 and level-2 safe-agreement writes blocks one S-code — with at most
// k stalled C-processes in a (k+1)-concurrent run, at least n−k S-codes keep
// receiving turns, which is the structural fact the ¬Ωk output rule turns
// into advice. The raise and resolve rules are bg.Raise and bg.Resolve,
// the ones internal/bg's simulators run.

// asimSAKey identifies the safe agreement deciding S-code q's step s.
type asimSAKey struct {
	q, s int
}

type asimSAEntry struct {
	level    int
	proposal auto.View // combined view (len 2n)
	fd       any       // the DAG sample the step will consume
}

// AsimMachine is one deterministic instance of Asim, driven by an explicit
// schedule of C-process indices.
type AsimMachine struct {
	alg    SimAlg
	n      int
	inputs vec.Vector
	cursor *fdet.Cursor

	ccodes   []auto.Automaton
	cLast    []auto.Value
	cDecided []bool
	cDec     []any
	cParity  []int // alternates own-step / BG-step

	scodes []SCode
	sLast  []auto.Value
	sSteps []int
	sTurns []int // sequence of S-code indices receiving simulated steps

	sa       map[asimSAKey]map[int]asimSAEntry // key → simulator → entry
	bgCursor []int
	starved  []bool // S-codes the DAG can no longer feed
}

// NewAsimMachine builds a machine for algorithm alg with the given input
// vector, drawing detector values from dag.
func NewAsimMachine(alg SimAlg, inputs vec.Vector, dag *fdet.DAG) *AsimMachine {
	n := alg.N()
	m := &AsimMachine{
		alg:      alg,
		n:        n,
		inputs:   inputs.Clone(),
		cursor:   dag.NewCursor(),
		ccodes:   make([]auto.Automaton, n),
		cLast:    make([]auto.Value, n),
		cDecided: make([]bool, n),
		cDec:     make([]any, n),
		cParity:  make([]int, n),
		scodes:   make([]SCode, n),
		sLast:    make([]auto.Value, n),
		sSteps:   make([]int, n),
		sa:       make(map[asimSAKey]map[int]asimSAEntry),
		bgCursor: make([]int, n),
		starved:  make([]bool, n),
	}
	for q := 0; q < n; q++ {
		m.scodes[q] = alg.NewSCode(q)
		m.sLast[q] = m.scodes[q].WriteValue()
	}
	return m
}

// N returns the number of C-processes (and S-codes).
func (m *AsimMachine) N() int { return m.n }

// Decided reports C-process i's simulated decision.
func (m *AsimMachine) Decided(i int) (any, bool) {
	if i < 0 || i >= m.n || !m.cDecided[i] {
		return nil, false
	}
	return m.cDec[i], true
}

// AllDecided reports whether every participating C-process decided.
func (m *AsimMachine) AllDecided(participants []int) bool {
	for _, i := range participants {
		if !m.cDecided[i] {
			return false
		}
	}
	return true
}

// combinedView snapshots the combined register table.
func (m *AsimMachine) combinedView() auto.View {
	v := make(auto.View, 2*m.n)
	copy(v, m.cLast)
	copy(v[m.n:], m.sLast)
	return v
}

// StepC performs one step of C-process i (participating it if needed). It
// reports false if i is out of range or has no input.
func (m *AsimMachine) StepC(i int) bool {
	if i < 0 || i >= m.n || m.inputs[i] == nil {
		return false
	}
	if m.ccodes[i] == nil {
		m.ccodes[i] = m.alg.NewCCode(i, m.inputs[i])
	}
	if m.cParity[i] == 0 && !m.cDecided[i] {
		m.cParity[i] = 1
		m.ownStep(i)
		return true
	}
	m.cParity[i] = 0
	m.bgStep(i)
	return true
}

// ownStep runs one write+collect step of i's own code.
func (m *AsimMachine) ownStep(i int) {
	a := m.ccodes[i]
	if _, done := a.Decided(); done {
		return
	}
	m.cLast[i] = a.WriteValue()
	a.OnView(m.combinedView())
	if d, done := a.Decided(); done {
		m.cDecided[i], m.cDec[i] = true, d
	}
}

// bgStep runs one safe-agreement action of simulator i toward the S-codes.
func (m *AsimMachine) bgStep(i int) {
	m.resolveAll()
	for off := 0; off < m.n; off++ {
		q := (m.bgCursor[i] + off) % m.n
		if m.starved[q] {
			continue
		}
		key := asimSAKey{q: q, s: m.sSteps[q]}
		entries := m.sa[key]
		mine, engaged := entries[i]
		if !engaged {
			// Choosing the DAG sample is part of proposing the step; if the
			// DAG has no causally-succeeding sample for q, the step cannot
			// be simulated (Appendix B: "succeed to take step for qi if
			// there is enough value for qi in G").
			sample, ok := m.cursor.Next(q)
			if !ok {
				m.starved[q] = true
				continue
			}
			if entries == nil {
				entries = make(map[int]asimSAEntry)
				m.sa[key] = entries
			}
			entries[i] = asimSAEntry{level: 1, proposal: m.combinedView(), fd: sample.Value}
			m.bgCursor[i] = (q + 1) % m.n
			return
		}
		if mine.level == 1 {
			lvl := bg.Raise(i, m.n, func(j int) int { return entries[j].level })
			entries[i] = asimSAEntry{level: lvl, proposal: mine.proposal, fd: mine.fd}
			m.resolveAll()
			m.bgCursor[i] = (q + 1) % m.n
			return
		}
		// level 0 or 2 with the agreement unresolved: q is blocked by
		// another simulator's level-1 — skip it.
	}
}

// resolveAll applies every resolvable S-step.
func (m *AsimMachine) resolveAll() {
	for q := 0; q < m.n; q++ {
		for m.resolveOne(q) {
		}
	}
}

func (m *AsimMachine) resolveOne(q int) bool {
	key := asimSAKey{q: q, s: m.sSteps[q]}
	entries := m.sa[key]
	winnerID, ok := bg.Resolve(m.n, func(j int) int { return entries[j].level })
	if !ok {
		return false
	}
	win := entries[winnerID]
	m.sLast[q] = m.scodes[q].WriteValue()
	view := make(auto.View, 2*m.n)
	copy(view, win.proposal)
	view[m.n+q] = m.sLast[q] // the collect follows q's own write
	m.scodes[q].OnView(view, win.fd)
	m.sSteps[q]++
	m.sTurns = append(m.sTurns, q)
	m.sLast[q] = m.scodes[q].WriteValue()
	delete(m.sa, key)
	return true
}

// HoldsLevel1On reports whether simulator i currently holds a level-1 entry
// blocking S-code q — the state in which stalling i blocks q.
func (m *AsimMachine) HoldsLevel1On(i, q int) bool {
	key := asimSAKey{q: q, s: m.sSteps[q]}
	if entries := m.sa[key]; entries != nil {
		if e, ok := entries[i]; ok && e.level == 1 {
			return true
		}
	}
	return false
}

// LastSTurnSet returns the distinct S-codes appearing latest in the
// simulated S-turn sequence, padded to exactly size entries with the
// smallest unused ids (Figure 1 line 6: "any n−k S-processes if not
// possible").
func (m *AsimMachine) LastSTurnSet(size int) []int {
	out := make([]int, 0, size)
	seen := make(map[int]bool, size)
	for t := len(m.sTurns) - 1; t >= 0 && len(out) < size; t-- {
		q := m.sTurns[t]
		if !seen[q] {
			seen[q] = true
			out = append(out, q)
		}
	}
	for q := 0; q < m.n && len(out) < size; q++ {
		if !seen[q] {
			seen[q] = true
			out = append(out, q)
		}
	}
	return out
}
