package kv

import (
	"slices"
	"strings"
)

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
func (s *State) ApplyReq(r *Request) (rep Reply, fresh bool) {
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

// Snapshot is a replica's State at its apply frontier: what applying every
// log slot below Next produced. A replica publishes one in its snapshot
// register before it gives back log windows a lagging replica has yet to
// sweep, and the laggard installs it instead (server.go, reclaim). Its parts
// are cut from its writer's slabs — the map as the puts that rebuild it,
// sorted by key so that equal states render alike in a trace and a state
// hash, and each clerk's last reply, whose Seq is the clerk's applied seq —
// and nothing in it is written again.
type Snapshot struct {
	Next int
	Ver  int64
	Puts []Request
	Last []Reply
}

// puts appends the map to dst as the puts that rebuild it, sorted by key.
func (s *State) puts(dst []Request) []Request {
	dst = slices.Grow(dst, len(s.m))
	for k, v := range s.m {
		dst = append(dst, Request{Op: OpPut, Key: k, Val: v})
	}
	slices.SortFunc(dst, func(a, b Request) int { return strings.Compare(a.Key, b.Key) })
	return dst
}

// install makes s the state sn was taken from. It copies, so sn stays as its
// writer left it, and it reuses s's map.
func (s *State) install(sn *Snapshot) {
	clear(s.m)
	for _, p := range sn.Puts {
		s.m[p.Key] = p.Val
	}
	copy(s.last, sn.Last)
	for c, rep := range sn.Last {
		s.applied[c] = rep.Seq
	}
	s.ver = sn.Ver
}
