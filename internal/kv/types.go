// Package kv is a replicated key/value service over the repo's consensus
// substrate: the first real client-facing workload ("millions of users")
// built from the pieces of the wait-freedom-with-advice model.
//
// The replicated state is a map[string]int64 driven by a log of
// paxos instances (paxos.Log over sim.Ops registers); which replica drives
// the log comes from live Ω advice (a QueryFD per replica loop), so
// leadership converges exactly when the detector stabilizes. Clients are
// C-processes running a clerk session: one request register per client, one
// reply register back, dedup by (client, seq) inside the state machine so a
// request re-proposed across a leader crash applies exactly once. The
// leader serves pure reads from its applied state under a lease check — one
// read of the apply-frontier decision register — without a log round
// (linearizable: if nothing past the frontier is decided anywhere, the
// local state IS the latest committed state).
//
// Bodies are plain sim.Ops functions, so the same service runs on the
// lockstep sim backend (conformance grid, explorer) and the native backend
// (efd-kv open-loop stress with leader crash injection).
package kv

import (
	"fmt"

	"wfadvice/internal/sim"
)

// OpKind is a client operation kind.
type OpKind uint8

// Operation kinds.
const (
	OpGet OpKind = iota // read key, returns current value
	OpPut               // write key, returns previous value
)

// String implements fmt.Stringer.
func (k OpKind) String() string {
	if k == OpPut {
		return "put"
	}
	return "get"
}

// Request is one client operation. Clerk c writes a pointer to it into
// ReqKey(c), taken from the clerk's slab, which never writes it again.
type Request struct {
	Client int // clerk index
	Seq    int // per-client sequence number, starting at 1
	Op     OpKind
	Key    string
	Val    int64 // Put argument; ignored for Get
}

// Reply answers Request{Client, Seq}; the replica writes a pointer to it,
// taken from its slab, to RepKey(c).
type Reply struct {
	Seq   int
	Val   int64 // Get: value read; Put: previous value
	Ver   int64 // state version at the linearization point
	Lease bool  // served from a leader lease, not a log entry
}

// Batch is a log entry: one leader's bundle of pending requests, proposed as
// a pointer taken from the leader's slab. (Proposer, Seq) identifies the
// batch so the proposing leader can tell whether a decided slot carries its
// own batch or a competitor's.
type Batch struct {
	Proposer int
	Seq      int64
	Reqs     []Request
}

// OpRecord is one completed client operation as the clerk observed it, the
// unit of the linearizability check.
//
// The fields are ordered by size, so that a record packs into 64 bytes.
type OpRecord struct {
	Key   string
	Arg   int64 // Put argument
	Out   int64 // reply value
	Ver   int64 // reply version
	Start int64 // invocation timestamp, ns since the run base; 0 on sim
	End   int64 // completion timestamp; 0 on sim
	Op    OpKind
	Lease bool // reply was lease-served (reads only)
	// TimedOut marks an operation whose reply never arrived before the
	// clerk's per-op deadline. The clerk moves on; the request may still
	// apply later (or never), so the linearizability check treats the op as
	// invoked-but-unresolved: excluded from the claimed order, optionally
	// applied in the search. Out/Ver/Lease are meaningless when set.
	TimedOut bool
}

// Session is one clerk's complete history; it is the clerk's decision
// value.
type Session struct {
	Client int
	Ops    []OpRecord
}

// LogPrefix is the register-key prefix of the replicated log.
const LogPrefix = "kv/log"

// ReqKey is clerk c's request register.
func ReqKey(c int) string { return fmt.Sprintf("kv/req/%d", c) }

// RepKey is clerk c's reply register.
func RepKey(c int) string { return fmt.Sprintf("kv/rep/%d", c) }

// ReqKeys returns all request registers, slot c = ReqKey(c).
func ReqKeys(nc int) []string {
	keys := make([]string, nc)
	for c := range keys {
		keys[c] = ReqKey(c)
	}
	return keys
}

// RepKeys returns all reply registers, slot c = RepKey(c).
func RepKeys(nc int) []string {
	keys := make([]string, nc)
	for c := range keys {
		keys[c] = RepKey(c)
	}
	return keys
}

// FrontierKey is replica i's frontier register: the base of the log window
// its apply frontier is in, which is its promise never to touch a slot below
// it again. It sits under the log's prefix because it is log bookkeeping.
func FrontierKey(i int) string { return fmt.Sprintf("%s/frontier/%d", LogPrefix, i) }

// FrontierKeys returns all frontier registers, slot i = FrontierKey(i).
func FrontierKeys(ns int) []string {
	keys := make([]string, ns)
	for i := range keys {
		keys[i] = FrontierKey(i)
	}
	return keys
}

// SnapshotKey is replica i's snapshot register: the *Snapshot it last took,
// which a replica that has fallen too far behind installs (server.go,
// reclaim).
func SnapshotKey(i int) string { return fmt.Sprintf("kv/snap/%d", i) }

// SnapshotKeys returns all snapshot registers, slot i = SnapshotKey(i).
func SnapshotKeys(ns int) []string {
	keys := make([]string, ns)
	for i := range keys {
		keys[i] = SnapshotKey(i)
	}
	return keys
}

// Pause is the hook poll loops call after a sweep that made no progress,
// with the change epoch sampled before the sweep. Nil means the backend's
// own wait, sim.Ops.AwaitEpoch; a caller sets one only to observe or time
// the waits.
type Pause func(e sim.Ops, seen uint64)

func awaitEpoch(e sim.Ops, seen uint64) { e.AwaitEpoch(seen) }
