package kv

import (
	"cmp"
	"fmt"
	"sort"
	"strings"
)

// Linearizability checking, two ways.
//
// CheckSessions is the scalable check: it trusts the version stamps the
// service itself handed out. Every fresh log apply bumps a global version;
// a lease read carries the version of the state it saw. Ordering all
// records by (version, lease-after-applied) yields the claimed
// linearization; the check replays it against a model map and verifies
// every returned value, per-session version monotonicity, and — when
// timestamps are present (native) — that the claimed order respects
// real-time (an op that completed before another was invoked must
// linearize first). Millions of ops, O(n log sessions), eight bytes an op.
//
// CheckLinearizable is the trustless check for small histories: a
// Wing&Gong-style DFS over interleavings of the per-session sequences,
// using only invocation order and results. It certifies that SOME legal
// linearization exists without believing any stamp the implementation
// produced. The conformance grid runs it on both backends.

// record pairs an OpRecord with its session for error reporting.
type record struct {
	c   int
	idx int
	OpRecord
}

// record is op i of the session, for an error message.
func (s *Session) record(i int) record { return record{c: s.Client, idx: i, OpRecord: s.Ops[i]} }

func (r record) String() string {
	return fmt.Sprintf("c%d[%d] %s %s(arg=%d)=%d ver=%d lease=%v",
		r.c, r.idx, r.Op, r.Key, r.Arg, r.Out, r.Ver, r.Lease)
}

// opRef names one operation of a history: Ops[i] of sessions[s]. The claimed
// order is a slice of these, eight bytes an operation; the records stay
// where the clerks put them.
type opRef struct{ s, i int32 }

// claimedBefore is the claimed linearization as a comparison: version order,
// an applied op before the lease reads that observed its state. Lease reads
// sharing a version commute — they return the same snapshot and mutate
// nothing — so the checker may pick any order among them; it picks
// invocation order, which is the one order that can never manufacture a
// real-time violation inside the tie group (a later-start read sorts later,
// and every read's completion follows its own start). On the sim backend
// Start is uniformly zero and the tie-break is inert.
func claimedBefore(a, b *OpRecord) int {
	if a.Ver != b.Ver {
		return cmp.Compare(a.Ver, b.Ver)
	}
	if a.Lease != b.Lease {
		if b.Lease {
			return -1
		}
		return 1
	}
	return cmp.Compare(a.Start, b.Start)
}

// CheckSessions validates client sessions against the replicated-map
// semantics. complete says every participating clerk's session is present;
// with sessions missing (an undecided clerk cut off by a run budget), the
// global replay is skipped — absent writes would make it unsound — and
// only the per-session and real-time checks run.
//
// TimedOut records are invoked-but-unresolved: the clerk gave up before a
// reply, so they carry no stamps to audit and are excluded from the
// claimed order. They are not free, though — each one licenses at most one
// applied version to be absent from the completed sessions (the request
// may have applied with its reply lost, never both more than once thanks
// to (client,seq) dedup), which the complete-history version audit
// enforces. With any timeout present the value replay is skipped: a
// timed-out Put may have mutated the state invisibly.
func CheckSessions(sessions []*Session, complete bool) error {
	order, timeouts, err := claimedOrder(sessions)
	if err != nil {
		return err
	}
	at := func(r opRef) *OpRecord { return &sessions[r.s].Ops[r.i] }
	rec := func(r opRef) record { return sessions[r.s].record(int(r.i)) }
	if complete {
		// Version audit: applied versions are globally unique, and any
		// version the service handed out but no completed op carries must
		// be accounted for by a timed-out op whose apply went unseen.
		var lastApplied, maxVer int64
		appliedSeen := 0
		for _, r := range order {
			op := at(r)
			if op.Ver > maxVer {
				maxVer = op.Ver // a lease read can observe an unseen apply
			}
			if op.Lease {
				continue
			}
			if op.Ver == lastApplied {
				return fmt.Errorf("kv: duplicate applied version %d at %v", op.Ver, rec(r))
			}
			lastApplied = op.Ver
			appliedSeen++
		}
		if missing := int(maxVer) - appliedSeen; missing > timeouts {
			return fmt.Errorf("kv: %d applied versions missing from completed sessions, only %d ops timed out",
				missing, timeouts)
		}
		if timeouts == 0 {
			state := make(map[string]int64)
			for _, r := range order {
				op := at(r)
				if cur := state[op.Key]; op.Out != cur {
					return fmt.Errorf("kv: replay mismatch at %v: state has %s=%d", rec(r), op.Key, cur)
				}
				if op.Op == OpPut {
					state[op.Key] = op.Arg
				}
			}
		}
	}
	// Real-time order: an op that completed before another started must
	// not linearize after it. Reverse scan: minEnd is the earliest
	// completion among ops placed later in the claimed order.
	minEnd := int64(1<<63 - 1)
	for i := len(order) - 1; i >= 0; i-- {
		op := at(order[i])
		if op.End <= 0 {
			continue // untimed (sim backend)
		}
		if op.Start > minEnd {
			return fmt.Errorf("kv: real-time violation: %v invoked after a later-linearized op completed (start=%d > min later end=%d)",
				rec(order[i]), op.Start, minEnd)
		}
		if op.End < minEnd {
			minEnd = op.End
		}
	}
	return nil
}

// claimedOrder runs the per-session checks and returns the claimed
// linearization of the completed operations, with the number of timed-out
// ones it left out.
//
// Each session is already in claimed order: its versions grow, two of its
// ops share one only when the later is a lease read, and a clerk invokes its
// ops one after the other — the per-session pass checks all three, the last
// as the one comparison that says so directly. The global order is therefore
// a merge of the sessions, the earliest session winning ties: what a stable
// sort of their concatenation yields, without copying a record.
func claimedOrder(sessions []*Session) (order []opRef, timeouts int, err error) {
	total := 0
	for _, s := range sessions {
		total += len(s.Ops)
	}
	for _, s := range sessions {
		var prev *OpRecord
		for i := range s.Ops {
			op := &s.Ops[i]
			if op.TimedOut {
				timeouts++
				continue
			}
			if op.Lease && op.Op != OpGet {
				return nil, 0, fmt.Errorf("kv: lease-served write: %v", s.record(i))
			}
			if prev != nil {
				// Within a session ops are sequential, so versions grow.
				// Equality is legal only for a lease read directly after
				// the op whose version it observed.
				if op.Ver < prev.Ver || (op.Ver == prev.Ver && !op.Lease) {
					return nil, 0, fmt.Errorf("kv: session version not monotone: %v after ver=%d (lease=%v)",
						s.record(i), prev.Ver, prev.Lease)
				}
				if claimedBefore(prev, op) > 0 {
					return nil, 0, fmt.Errorf("kv: session out of invocation order: %v starts at %d, before its predecessor's start at %d",
						s.record(i), op.Start, prev.Start)
				}
			}
			if !op.Lease && op.Ver < 1 {
				return nil, 0, fmt.Errorf("kv: applied op without a version: %v", s.record(i))
			}
			prev = op
		}
	}

	// heads is a binary min-heap of the sessions with operations left, each
	// standing for its next completed op; ties go to the lower session.
	next := make([]int32, len(sessions)) // index of session s's head op
	advance := func(s int32) bool {      // skips timed-out ops; false when s is drained
		ops := sessions[s].Ops
		for int(next[s]) < len(ops) && ops[next[s]].TimedOut {
			next[s]++
		}
		return int(next[s]) < len(ops)
	}
	less := func(a, b int32) bool {
		if c := claimedBefore(&sessions[a].Ops[next[a]], &sessions[b].Ops[next[b]]); c != 0 {
			return c < 0
		}
		return a < b
	}
	var heads []int32
	down := func(i int) {
		for {
			m := i
			for c := 2*i + 1; c <= 2*i+2 && c < len(heads); c++ {
				if less(heads[c], heads[m]) {
					m = c
				}
			}
			if m == i {
				return
			}
			heads[i], heads[m] = heads[m], heads[i]
			i = m
		}
	}
	for s := range sessions {
		if advance(int32(s)) {
			heads = append(heads, int32(s))
		}
	}
	for i := len(heads)/2 - 1; i >= 0; i-- {
		down(i)
	}
	order = make([]opRef, 0, total-timeouts)
	for len(heads) > 0 {
		s := heads[0]
		order = append(order, opRef{s, next[s]})
		next[s]++
		if !advance(s) {
			heads[0] = heads[len(heads)-1]
			heads = heads[:len(heads)-1]
		}
		down(0)
	}
	return order, timeouts, nil
}

// CheckLinearizable searches for a legal sequential interleaving of the
// sessions using only results (version stamps and timestamps ignored). It
// is exponential in the worst case; callers gate it to histories of at
// most maxOps operations (it returns nil, vacuously, above that).
func CheckLinearizable(sessions []*Session, maxOps int) error {
	total := 0
	for _, s := range sessions {
		total += len(s.Ops)
	}
	if total == 0 || total > maxOps {
		return nil
	}
	idx := make([]int, len(sessions))
	state := make(map[string]int64)
	seen := make(map[string]bool)
	if searchLin(sessions, idx, state, seen, total) {
		return nil
	}
	return fmt.Errorf("kv: no legal linearization of %d ops across %d sessions", total, len(sessions))
}

// searchLin tries to extend the current interleaving by one op from any
// session. seen memoizes dead (indices, state) configurations.
func searchLin(sessions []*Session, idx []int, state map[string]int64, seen map[string]bool, left int) bool {
	if left == 0 {
		return true
	}
	key := cfgKey(idx, state)
	if seen[key] {
		return false
	}
	for i, s := range sessions {
		j := idx[i]
		if j >= len(s.Ops) {
			continue
		}
		op := s.Ops[j]
		if op.TimedOut {
			// Unresolved op: per-client seq dedup means it took effect
			// before the session's next completed op or never, which is
			// exactly the two branches here — skip it entirely, or (for a
			// Put) apply its mutation now with no result to verify.
			idx[i]++
			if searchLin(sessions, idx, state, seen, left-1) {
				return true
			}
			if op.Op == OpPut {
				prev := state[op.Key]
				state[op.Key] = op.Arg
				if searchLin(sessions, idx, state, seen, left-1) {
					return true
				}
				state[op.Key] = prev
			}
			idx[i]--
			continue
		}
		if op.Out != state[op.Key] {
			continue // this op cannot linearize here
		}
		idx[i]++
		if op.Op == OpPut {
			prev := state[op.Key]
			state[op.Key] = op.Arg
			if searchLin(sessions, idx, state, seen, left-1) {
				return true
			}
			state[op.Key] = prev
		} else if searchLin(sessions, idx, state, seen, left-1) {
			return true
		}
		idx[i]--
	}
	seen[key] = true
	return false
}

// cfgKey encodes (indices, state) for memoization.
func cfgKey(idx []int, state map[string]int64) string {
	keys := make([]string, 0, len(state))
	for k := range state {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, i := range idx {
		fmt.Fprintf(&b, "%d,", i)
	}
	b.WriteByte('|')
	for _, k := range keys {
		fmt.Fprintf(&b, "%s=%d,", k, state[k])
	}
	return b.String()
}
