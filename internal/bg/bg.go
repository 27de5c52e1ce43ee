// Package bg implements safe agreement and the Borowsky–Gafni (BG)
// simulation over the collect-automaton substrate: m simulators jointly
// execute n simulated codes so that a simulator crash blocks at most one
// code. The paper uses BG-simulation inside Figure 1's Asim (the
// C-processes simulate the S-part of the algorithm under reduction) and
// cites it throughout §4; the package is also exercised standalone by the
// E12 experiments, which reproduce the textbook guarantee: with at most k
// of k+1 simulators stalled, at least n−k codes take unboundedly many steps.
//
// Safe agreement is the classic two-level write/collect protocol: a
// proposer writes (proposal, level 1), collects, and raises to level 2
// unless it saw another level 2 (then it backs off to level 0). The
// agreement resolves, once no level-1 entry remains, to the proposal of the
// smallest-id simulator at level 2. A simulator that stalls between its
// level-1 and level-2 writes blocks the agreement — and with it the one code
// the agreement belongs to — which is exactly BG's blocking anatomy.
//
// Each simulator publishes its safe-agreement state as an append-only log;
// peers index the log incrementally, so a simulation step costs O(new
// entries) rather than a full-state copy.
package bg

import (
	"fmt"

	"wfadvice/internal/auto"
)

// saKey identifies the safe-agreement instance deciding the view of code c's
// step s.
type saKey struct {
	c, s int
}

// saEntry is one simulator's contribution to a safe-agreement instance.
type saEntry struct {
	Level    int // 1, 2, or 0 (backed off)
	Proposal auto.View
}

// saLogEntry is one append-only log record; a later record for the same key
// supersedes the earlier one.
type saLogEntry struct {
	Key   saKey
	Entry saEntry
}

// saLog is the register content a simulator publishes. It is append-only;
// published slice headers snapshot a stable prefix, so sharing the backing
// array with later appends is safe.
type saLog []saLogEntry

// Simulator is one BG simulator running as a collect automaton. All
// simulators deterministically replay the simulated codes from the resolved
// step views, so they agree on every code's writes without publishing them.
type Simulator struct {
	me      int
	m       int
	nCodes  int
	codes   []auto.Automaton
	applied []int
	pending []auto.Value
	last    []auto.Value // latest write per code, from the replayed prefix
	decided []bool

	myLog   saLog
	myIdx   map[saKey]saEntry
	peerIdx []map[saKey]saEntry
	peerLen []int
	cursor  int
	stats   *Stats
}

var _ auto.Automaton = (*Simulator)(nil)

// Stats aggregates progress counters shared by the simulators of one run
// (each simulator replays the same resolutions; counters record the maximum
// step reached per code).
type Stats struct {
	StepsOf []int
}

// NewStats returns counters for n codes.
func NewStats(n int) *Stats { return &Stats{StepsOf: make([]int, n)} }

// NewSimulator builds simulator me of m over n codes produced by factory.
func NewSimulator(me, m, n int, factory func(c int) auto.Automaton, stats *Stats) *Simulator {
	s := &Simulator{
		me:      me,
		m:       m,
		nCodes:  n,
		codes:   make([]auto.Automaton, n),
		applied: make([]int, n),
		pending: make([]auto.Value, n),
		last:    make([]auto.Value, n),
		decided: make([]bool, n),
		myIdx:   make(map[saKey]saEntry),
		peerIdx: make([]map[saKey]saEntry, m),
		peerLen: make([]int, m),
		stats:   stats,
	}
	for j := 0; j < m; j++ {
		s.peerIdx[j] = make(map[saKey]saEntry)
	}
	for c := 0; c < n; c++ {
		s.codes[c] = factory(c)
		s.pending[c] = s.codes[c].WriteValue()
		s.last[c] = s.pending[c]
	}
	return s
}

// WriteValue implements auto.Automaton: publish the safe-agreement log.
func (s *Simulator) WriteValue() auto.Value { return s.myLog }

// Decided implements auto.Automaton: simulators never decide.
func (s *Simulator) Decided() (auto.Value, bool) { return nil, false }

// record appends a state change to the log and index.
func (s *Simulator) record(key saKey, e saEntry) {
	s.myLog = append(s.myLog, saLogEntry{Key: key, Entry: e})
	s.myIdx[key] = e
}

// OnView implements auto.Automaton: ingest peers' logs, resolve what can be
// resolved, then stage the next safe-agreement action for the first
// unblocked code.
func (s *Simulator) OnView(view auto.View) {
	s.ingest(view)
	for c := 0; c < s.nCodes; c++ {
		for s.tryResolve(c) {
		}
	}
	for off := 0; off < s.nCodes; off++ {
		c := (s.cursor + off) % s.nCodes
		if s.decided[c] {
			continue
		}
		key := saKey{c: c, s: s.applied[c]}
		mine, engaged := s.myIdx[key]
		if !engaged {
			prop := make(auto.View, s.nCodes)
			copy(prop, s.last)
			s.record(key, saEntry{Level: 1, Proposal: prop})
			s.cursor = (c + 1) % s.nCodes
			return
		}
		if mine.Level == 1 {
			lvl := Raise(s.me, s.m, func(j int) int { return s.entryOf(j, key).Level })
			s.record(key, saEntry{Level: lvl, Proposal: mine.Proposal})
			s.cursor = (c + 1) % s.nCodes
			return
		}
		// We are at level 0 or 2 and the agreement has not resolved: some
		// other simulator holds a level-1 entry — the code is blocked; move
		// on (BG's defining move).
	}
}

// ingest indexes the new suffix of every peer's published log.
func (s *Simulator) ingest(view auto.View) {
	for j := 0; j < s.m && j < len(view); j++ {
		if j == s.me {
			continue
		}
		log, ok := view[j].(saLog)
		if !ok {
			continue
		}
		for i := s.peerLen[j]; i < len(log); i++ {
			s.peerIdx[j][log[i].Key] = log[i].Entry
		}
		s.peerLen[j] = len(log)
	}
}

// entryOf returns simulator j's current entry for key, the zero entry
// (level 0) when it has none, using local state for j == me.
func (s *Simulator) entryOf(j int, key saKey) saEntry {
	if j == s.me {
		return s.myIdx[key]
	}
	return s.peerIdx[j][key]
}

// Raise is safe agreement's second write: a simulator me at level 1, having
// collected the levels of all m simulators (level(j) is 0 when j has no
// entry), moves to level 2, or backs off to level 0 if another simulator is
// already at level 2.
func Raise(me, m int, level func(j int) int) int {
	for j := 0; j < m; j++ {
		if j != me && level(j) == 2 {
			return 0
		}
	}
	return 2
}

// Resolve reads a safe agreement from the levels of its m simulators
// (level(j) is 0 when j has no entry): it is unresolved while anyone is at
// level 1 or nobody is at level 2; otherwise the smallest id at level 2
// wins.
func Resolve(m int, level func(j int) int) (winner int, ok bool) {
	winner = -1
	for j := 0; j < m; j++ {
		switch level(j) {
		case 1:
			return -1, false
		case 2:
			if winner < 0 {
				winner = j
			}
		}
	}
	return winner, winner >= 0
}

// tryResolve applies code c's next step if its agreement has resolved (see
// Resolve).
func (s *Simulator) tryResolve(c int) bool {
	if s.decided[c] {
		return false
	}
	key := saKey{c: c, s: s.applied[c]}
	w, ok := Resolve(s.m, func(j int) int { return s.entryOf(j, key).Level })
	if !ok {
		return false
	}
	stepView := make(auto.View, s.nCodes)
	copy(stepView, s.entryOf(w, key).Proposal)
	stepView[c] = s.pending[c] // a collect follows the code's own write
	s.codes[c].OnView(stepView)
	s.applied[c]++
	if s.stats != nil && s.applied[c] > s.stats.StepsOf[c] {
		s.stats.StepsOf[c] = s.applied[c]
	}
	if _, done := s.codes[c].Decided(); done {
		s.decided[c] = true
		return false
	}
	s.pending[c] = s.codes[c].WriteValue()
	s.last[c] = s.pending[c]
	return true
}

// CodeDecision returns code c's decision in this simulator's replay.
func (s *Simulator) CodeDecision(c int) (auto.Value, bool) {
	if !s.decided[c] {
		return nil, false
	}
	return s.codes[c].Decided()
}

// StepsOf returns the number of steps code c has taken in this simulator's
// replay.
func (s *Simulator) StepsOf(c int) int { return s.applied[c] }

// HoldsLevel1 reports whether this simulator currently holds a level-1 entry
// (the state in which stalling it blocks a code).
func (s *Simulator) HoldsLevel1() bool {
	for c := 0; c < s.nCodes; c++ {
		key := saKey{c: c, s: s.applied[c]}
		if e, ok := s.myIdx[key]; ok && e.Level == 1 {
			return true
		}
	}
	return false
}

// Run is a convenience harness: m simulators over n codes, stepped by an
// explicit schedule of simulator indices. It returns the simulators and the
// shared system for inspection.
func Run(m, n int, factory func(c int) auto.Automaton, schedule []int) ([]*Simulator, *auto.System, *Stats, error) {
	if m < 1 || n < 1 {
		return nil, nil, nil, fmt.Errorf("bg: need at least one simulator and one code")
	}
	stats := NewStats(n)
	sims := make([]*Simulator, m)
	autos := make([]auto.Automaton, m)
	for i := 0; i < m; i++ {
		sims[i] = NewSimulator(i, m, n, factory, stats)
		autos[i] = sims[i]
	}
	sys := auto.NewSystem(autos)
	sys.RunSchedule(schedule)
	return sims, sys, stats, nil
}
