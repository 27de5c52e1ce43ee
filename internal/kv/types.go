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
// ReqKey(c), taken from the clerk's slab, which never writes it again; a
// leader proposes and every replica applies that same pointer.
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
// a pointer taken from the leader's slab. Reqs names the requests by the
// pointers the leader read from the request registers; it copies none.
// (Proposer, Seq) identifies the batch so the proposing leader can tell
// whether a decided slot carries its own batch or a competitor's.
type Batch struct {
	Proposer int
	Seq      int64
	Reqs     []*Request
}

// String renders the batch by content, as fmt renders a batch whose Reqs
// are values: a pointer nested in a register's value would print as its
// address, which no replay reproduces (see paxos.Block.String).
func (b *Batch) String() string {
	return fmt.Sprintf("&{%d %d %v}", b.Proposer, b.Seq, b.reqValues())
}

// GoString renders the batch by content for the explorer's state hash
// (%#v), for the reason String does.
func (b *Batch) GoString() string {
	return fmt.Sprintf("&kv.Batch{Proposer:%d, Seq:%d, Reqs:%#v}", b.Proposer, b.Seq, b.reqValues())
}

// reqValues copies the batch's requests for rendering; nil if Reqs is.
func (b *Batch) reqValues() []Request {
	if b.Reqs == nil {
		return nil
	}
	vs := make([]Request, len(b.Reqs))
	for i, r := range b.Reqs {
		vs[i] = *r
	}
	return vs
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

// Session is one clerk's history; it is the clerk's decision value. Its
// records are kept in chunks that are never copied or joined, so a history
// costs its records and at most one chunk's spare room. The first chunk
// holds what the clerk knows it will record (a script's length, an
// open-loop schedule's due times), or chunkMin records when it cannot know;
// each later one twice the last, from chunkMin up to chunkMax.
//
// A session streamed to a Checker (ClerkConfig.Checker) instead records
// into one chunk of streamChunk records, seals it into the checker when it
// is full and records on into a chunk the checker hands back, so it holds
// only the records since its last seal, and when decided its last chunk.
// Len counts every record; At and Ops reach only those it holds.
type Session struct {
	Client int
	chunks [][]OpRecord // all full but the last
	n      int
	ck     *Checker // the checker the session streams to, or nil
}

// chunkMin and chunkMax bound a later chunk: 4 KB to 1 MB of records, so a
// closed-loop clerk's history of a million records is about 70 chunks.
const (
	chunkMin = 1 << 6
	chunkMax = 1 << 14
)

// NewSession returns clerk c's session holding ops, in one chunk of exactly
// their number.
func NewSession(c int, ops ...OpRecord) *Session {
	s := newSession(c, len(ops))
	for _, op := range ops {
		s.add(op)
	}
	return s
}

// newSession returns clerk c's empty session, its first chunk sized for n
// records; n = 0 leaves the first chunk to add, at chunkMin.
func newSession(c, n int) *Session {
	s := &Session{Client: c}
	if n > 0 {
		s.chunks = [][]OpRecord{make([]OpRecord, 0, n)}
	}
	return s
}

// add appends op to the session.
func (s *Session) add(op OpRecord) {
	last := len(s.chunks) - 1
	if last < 0 || len(s.chunks[last]) == cap(s.chunks[last]) {
		if s.ck != nil {
			s.chunks[0] = s.ck.seal(s.Client, s.chunks[0], s.base(), false)
		} else {
			size := chunkMin
			if last >= 0 {
				size = min(max(2*cap(s.chunks[last]), chunkMin), chunkMax)
			}
			s.chunks = append(s.chunks, make([]OpRecord, 0, size))
			last++
		}
	}
	s.chunks[last] = append(s.chunks[last], op)
	s.n++
}

// close seals a streamed session's last chunk, which it keeps. The clerk
// decides the session after it.
func (s *Session) close() {
	if s.ck != nil {
		s.ck.seal(s.Client, s.chunks[0], s.base(), true)
	}
}

// Len is the number of records in the session.
func (s *Session) Len() int { return s.n }

// held is the number of records the session holds: all of them, unless it
// streamed some to a Checker.
func (s *Session) held() int {
	n := 0
	for _, c := range s.chunks {
		n += len(c)
	}
	return n
}

// base is the index of the first record the session holds.
func (s *Session) base() int { return s.n - s.held() }

// At returns record i of the session, which must be one it holds: any i
// below Len(), or for a streamed session one in its last chunk. It walks
// the chunks; the checker, which visits every record, indexes them itself.
func (s *Session) At(i int) *OpRecord {
	if j := i - s.base(); j >= 0 {
		for _, c := range s.chunks {
			if j < len(c) {
				return &c[j]
			}
			j -= len(c)
		}
	}
	panic(fmt.Sprintf("kv: record %d of a session of %d that holds its last %d", i, s.n, s.held()))
}

// Ops yields the records the session holds in order, with their indices:
// for i, op := range s.Ops.
func (s *Session) Ops(yield func(int, OpRecord) bool) {
	i := s.base()
	for _, c := range s.chunks {
		for _, op := range c {
			if !yield(i, op) {
				return
			}
			i++
		}
	}
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
