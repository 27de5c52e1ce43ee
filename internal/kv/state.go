package kv

// State is the deterministic replicated state machine every replica feeds
// the decided log into: a map[string]int64 plus the session table that makes
// application exactly-once. It is purely local (no sim.Ops) and only its
// replica's goroutine touches it; determinism across replicas follows from
// applying identical log prefixes.
type State struct {
	m       map[string]int64
	applied []int   // applied[c] = highest client-c seq applied
	last    []Reply // last[c] = reply to applied[c]
	ver     int64   // global apply counter; each fresh apply bumps it
}

// NewState returns an empty state machine for nc clients.
func NewState(nc int) *State {
	return &State{
		m:       make(map[string]int64),
		applied: make([]int, nc),
		last:    make([]Reply, nc),
	}
}

// Get returns the current value of key (zero if absent).
func (s *State) Get(key string) int64 { return s.m[key] }

// Ver returns the number of operations applied so far.
func (s *State) Ver() int64 { return s.ver }

// Applied returns the highest applied seq of client c.
func (s *State) Applied(c int) int { return s.applied[c] }

// LastReply returns the recorded reply to client c's last applied request.
func (s *State) LastReply(c int) Reply { return s.last[c] }

// ApplyReq applies one logged request. A request at or below the client's
// applied seq is a duplicate (re-proposed across a leadership change or
// batched twice): it is skipped and the recorded reply returned with
// fresh=false — the exactly-once guarantee.
func (s *State) ApplyReq(r Request) (rep Reply, fresh bool) {
	if r.Seq <= s.applied[r.Client] {
		return s.last[r.Client], false
	}
	s.ver++
	prev := s.m[r.Key]
	if r.Op == OpPut {
		s.m[r.Key] = r.Val
	}
	rep = Reply{Seq: r.Seq, Val: prev, Ver: s.ver}
	s.applied[r.Client] = r.Seq
	s.last[r.Client] = rep
	return rep, true
}
