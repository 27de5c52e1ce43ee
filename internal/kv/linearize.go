package kv

import (
	"cmp"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
)

// Linearizability checking, two ways.
//
// A Checker is the scalable check: it trusts the version stamps the service
// itself handed out. Every fresh log apply bumps a global version; a lease
// read carries the version of the state it saw. Ordering all records by
// (version, lease-after-applied, start) yields the claimed linearization;
// the check replays it against a model map and verifies every returned
// value, per-session version monotonicity, and — when timestamps are
// present (native) — that the claimed order respects real-time (an op that
// completed before another was invoked must linearize first).
//
// It takes a history as its sessions seal it, a chunk at a time, and judges
// a record once no record still to come can sort before it, so it holds
// only what it has not judged yet. A record costs O(sessions) time and no
// allocation. Two feeds drive the one check: CheckSessions seals whole
// sessions and finishes (sim, the conformance grid, a traced run), and the
// clerks of a native run seal each chunk as it fills and record on into one
// the check is done with (ClerkConfig.Checker), so a run of any length
// keeps a few chunks a clerk.
//
// Why a record is final once it sorts before the watermark W. Within a
// session the claimed order is the recording order: versions grow, two ops
// share one only when the later is a lease read, and a clerk invokes its
// ops one after the other (a seal checks all three). So whatever a session
// has yet to seal sorts at or after the last versioned record it sealed,
// and W, the least of those over the sessions still recording, is at or
// before everything to come. A sealed record strictly before W is final,
// and the records judged so far are a prefix of the claimed order however
// the seals interleaved. A decided session has nothing to come and does not
// bound W; one that has sealed no versioned record bounds it below
// everything. Lease reads tied at one version are ordered by their starts,
// so they pass W one by one too.
//
// Timed-out ops carry no stamps and stay out of the order. A timed-out Put
// may still have applied, unseen: after its session's previous completed
// op, because the clerk wrote the request only then, and before the next or
// never, because a replica drops Seq ≤ applied[c]. It can change the state
// only above its session's last version before it, so the replay stops at
// the least such version (cut). An op in flight or timed out that a session
// has not sealed yet applies above that session's last sealed version,
// which is ≥ W: the judged prefix is sound to replay while the run goes on,
// and whatever was judged before a timeout was sealed lies at or below the
// version that timeout cuts at. Which records are replayed therefore does
// not depend on how the seals interleaved, and on a complete history both
// feeds give one verdict.
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

func (r record) String() string {
	return fmt.Sprintf("c%d[%d] %s %s(arg=%d)=%d ver=%d lease=%v",
		r.c, r.idx, r.Op, r.Key, r.Arg, r.Out, r.Ver, r.Lease)
}

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

// streamChunk is the length of a streamed session's chunks, 64 KB of
// records. It is above searchMax, so a history short enough for the
// trustless search holds every record it has.
const streamChunk = 1 << 10

// Checker is the version-order check of one history, fed chunk by chunk.
// Its methods may be called from the sessions' goroutines at once.
type Checker struct {
	mu    sync.Mutex
	feeds []feed
	chunk int   // a streamed session's chunk length
	err   error // the first violation; nothing is checked after it
	done  bool  // Finish has run
	// partial: sessions are missing, so the replay and the version audit
	// are off (see CheckSessions).
	partial bool

	// What the judged prefix of the claimed order leaves behind.
	state       map[string]int64 // the model map
	cut         int64            // the last version replayed: a timed-out Put may have applied above it
	lastApplied int64            // the last applied record's version
	maxVer      int64            // the highest version a judged record carries
	applied     int              // applied records judged
	timeouts    int              // timed-out records sealed
	maxStart    int64            // the latest invocation of a judged timed record

	visit func(f, i int) // test hook: record i of session f is judged
}

// feed is one session as the check sees it.
type feed struct {
	client int
	// spans are the sealed chunks not wholly judged; spans[0].ops[next:] is
	// what is left of the first.
	spans     []span
	next      int
	last      OpRecord // the last versioned record sealed, when versioned
	versioned bool
	decided   bool // the session sealed its last record
	stream    bool // judged chunks go back to the clerk, through free
	free      [][]OpRecord
}

// span is a sealed chunk: ops[j] is record base+j of its session.
type span struct {
	ops  []OpRecord
	base int
}

// queueDepth is how many chunks a streamed session's queue and its free
// list hold before they grow. A run keeps two or three a session, so the
// two come out of one array each for the whole run.
const queueDepth = 4

// NewChecker returns the check of one run's nc clerks, each of which
// streams its session to it (ClerkConfig.Checker). The run's verdict is
// its Finish, which kv.Task reaches through CheckSessions.
func NewChecker(nc int) *Checker {
	k := newChecker(nc, streamChunk)
	spans, free := make([]span, nc*queueDepth), make([][]OpRecord, nc*queueDepth)
	for f := range k.feeds {
		fd, at := &k.feeds[f], f*queueDepth
		fd.stream = true
		fd.spans, fd.free = spans[at:at:at+queueDepth], free[at:at:at+queueDepth]
	}
	return k
}

func newChecker(n, chunk int) *Checker {
	k := &Checker{feeds: make([]feed, n), chunk: chunk, state: make(map[string]int64), cut: math.MaxInt64}
	for f := range k.feeds {
		k.feeds[f].client = f
	}
	return k
}

// session returns clerk c's session, streamed to k a chunk at a time.
func (k *Checker) session(c int) *Session {
	return &Session{Client: c, chunks: [][]OpRecord{make([]OpRecord, 0, k.chunk)}, ck: k}
}

// seal hands k chunk ops of session f, whose first record is record base
// of the session, and returns the chunk to record on into: one k has
// judged, or a new one. last says the session is done: it keeps its last
// chunk, and what seal returns goes unused. Once the verdict is in, the
// clerk records on over the same chunk.
func (k *Checker) seal(f int, ops []OpRecord, base int, last bool) []OpRecord {
	k.mu.Lock()
	defer k.mu.Unlock()
	fd := &k.feeds[f]
	if !k.done && k.err == nil {
		k.add(f, ops, base)
		fd.decided = last
		k.judgeFinal()
	}
	if last || k.done || k.err != nil {
		return ops[:0]
	}
	if n := len(fd.free); n > 0 {
		c := fd.free[n-1]
		fd.free = fd.free[:n-1]
		return c
	}
	return make([]OpRecord, 0, k.chunk)
}

// add runs the per-session checks over chunk ops of session f, carrying its
// last versioned record over from the chunk before, and queues the chunk.
func (k *Checker) add(f int, ops []OpRecord, base int) {
	fd := &k.feeds[f]
	if k.err != nil || len(ops) == 0 {
		return
	}
	var prev *OpRecord
	if fd.versioned {
		prev = &fd.last
	}
	for j := range ops {
		op := &ops[j]
		if op.TimedOut {
			k.timeouts++
			if op.Op == OpPut {
				v := int64(0)
				if prev != nil {
					v = prev.Ver
				}
				k.cut = min(k.cut, v)
			}
			continue
		}
		if op.Lease && op.Op != OpGet {
			k.fail("kv: lease-served write: %v", fd.record(base+j, op))
			return
		}
		if prev != nil {
			// Within a session ops are sequential, so versions grow.
			// Equality is legal only for a lease read directly after
			// the op whose version it observed.
			if op.Ver < prev.Ver || (op.Ver == prev.Ver && !op.Lease) {
				k.fail("kv: session version not monotone: %v after ver=%d (lease=%v)",
					fd.record(base+j, op), prev.Ver, prev.Lease)
				return
			}
			if claimedBefore(prev, op) > 0 {
				k.fail("kv: session out of invocation order: %v starts at %d, before its predecessor's start at %d",
					fd.record(base+j, op), op.Start, prev.Start)
				return
			}
		}
		if !op.Lease && op.Ver < 1 {
			k.fail("kv: applied op without a version: %v", fd.record(base+j, op))
			return
		}
		prev = op
	}
	if prev != nil && prev != &fd.last {
		fd.last, fd.versioned = *prev, true
	}
	fd.spans = append(fd.spans, span{ops: ops, base: base})
}

// judgeFinal judges every sealed record that sorts before the watermark.
func (k *Checker) judgeFinal() {
	var w *OpRecord
	for f := range k.feeds {
		switch fd := &k.feeds[f]; {
		case fd.decided:
		case !fd.versioned:
			return // it may yet seal any version
		case w == nil || claimedBefore(&fd.last, w) < 0:
			w = &fd.last
		}
	}
	k.judge(w) // w == nil: every session is done
}

// judge merges the sessions' sealed records in claimed order, the lower
// session first on ties — a stable sort of their concatenation — and judges
// those that sort before w, or all of them when w is nil.
func (k *Checker) judge(w *OpRecord) {
	for k.err == nil {
		f, op := -1, (*OpRecord)(nil)
		for i := range k.feeds {
			if h := k.feeds[i].head(); h != nil && (op == nil || claimedBefore(h, op) < 0) {
				f, op = i, h
			}
		}
		if op == nil || (w != nil && claimedBefore(op, w) >= 0) {
			return
		}
		k.judgeOne(f, op)
		k.feeds[f].next++
	}
}

// head is the session's first unjudged completed record, nil when it has
// none sealed. It passes over timed-out records, and drops judged chunks,
// handing a streaming clerk's back to it.
func (fd *feed) head() *OpRecord {
	for len(fd.spans) > 0 {
		if ops := fd.spans[0].ops; fd.next < len(ops) {
			if !ops[fd.next].TimedOut {
				return &ops[fd.next]
			}
			fd.next++
			continue
		}
		if fd.stream && !fd.decided {
			fd.free = append(fd.free, fd.spans[0].ops[:0])
		}
		n := copy(fd.spans, fd.spans[1:])
		fd.spans[n] = span{}
		fd.spans, fd.next = fd.spans[:n], 0
	}
	return nil
}

// judgeOne judges op, the head of session f and the next record in claimed
// order.
func (k *Checker) judgeOne(f int, op *OpRecord) {
	fd := &k.feeds[f]
	i := fd.spans[0].base + fd.next
	if k.visit != nil {
		k.visit(f, i)
	}
	if !k.partial {
		// Version audit: applied versions are globally unique (Finish
		// accounts for the missing ones), and the replay checks every
		// returned value up to the cut.
		k.maxVer = max(k.maxVer, op.Ver) // a lease read can observe an unseen apply
		if !op.Lease {
			if op.Ver == k.lastApplied {
				k.fail("kv: duplicate applied version %d at %v", op.Ver, fd.record(i, op))
				return
			}
			k.lastApplied = op.Ver
			k.applied++
		}
		if op.Ver <= k.cut {
			if cur := k.state[op.Key]; op.Out != cur {
				k.fail("kv: replay mismatch at %v: state has %s=%d", fd.record(i, op), op.Key, cur)
				return
			}
			if op.Op == OpPut {
				k.state[op.Key] = op.Arg
			}
		}
	}
	// Real-time order: an op that completed before another started must
	// not linearize after it, so no op may end before the latest start
	// linearized ahead of it. Untimed (sim) records take no part.
	if op.End > 0 {
		if op.End < k.maxStart {
			k.fail("kv: real-time violation: %v completed at %d, before an op linearized ahead of it was invoked at %d",
				fd.record(i, op), op.End, k.maxStart)
			return
		}
		k.maxStart = max(k.maxStart, op.Start)
	}
}

// record is record i of the session, op, for an error message.
func (fd *feed) record(i int, op *OpRecord) record {
	return record{c: fd.client, idx: i, OpRecord: *op}
}

// fail records the first violation; the check stops there and lets go of
// what it holds.
func (k *Checker) fail(format string, args ...any) {
	k.err = fmt.Errorf(format, args...)
	for f := range k.feeds {
		k.feeds[f].spans = nil
	}
}

// Finish judges whatever is left and returns the verdict. complete says
// every participating session is there (see CheckSessions); without it the
// replay and the version audit are off for what Finish judges. The first
// call judges; a later one returns its verdict, and a seal after it is not
// checked.
func (k *Checker) Finish(complete bool) error {
	k.mu.Lock()
	defer k.mu.Unlock()
	if k.done {
		return k.err
	}
	k.done = true
	k.partial = k.partial || !complete
	k.judge(nil)
	// Any version the service handed out that no completed op carries must
	// be accounted for by a timed-out op whose apply went unseen.
	if missing := int(k.maxVer) - k.applied; k.err == nil && !k.partial && missing > k.timeouts {
		k.err = fmt.Errorf("kv: %d applied versions missing from completed sessions, only %d ops timed out",
			missing, k.timeouts)
	}
	for f := range k.feeds {
		k.feeds[f].spans, k.feeds[f].free = nil, nil
	}
	return k.err
}

// CheckSessions validates client sessions against the replicated-map
// semantics: it seals each session's chunks into a Checker and finishes
// it. Sessions a native run streamed to a Checker hold only their last
// chunk; the verdict on them is their checker's Finish.
//
// complete says every participating clerk's session is present; with
// sessions missing (an undecided clerk cut off by a run budget), the
// global replay and the version audit are skipped — absent writes would
// make them unsound — and only the per-session and real-time checks run.
//
// TimedOut records are invoked-but-unresolved: the clerk gave up before a
// reply, so they carry no stamps to audit and are excluded from the
// claimed order. They are not free, though — each one licenses at most one
// applied version to be absent from the completed sessions (the request
// may have applied with its reply lost, never both more than once thanks
// to (client,seq) dedup), which the complete-history version audit
// enforces. A timed-out Put may also have mutated the state invisibly, so
// the value replay stops at the version it could have applied above.
func CheckSessions(sessions []*Session, complete bool) error {
	for _, s := range sessions {
		if s.ck != sessions[0].ck {
			return fmt.Errorf("kv: the sessions of clerks %d and %d were not streamed to one checker", sessions[0].Client, s.Client)
		}
	}
	if len(sessions) > 0 && sessions[0].ck != nil {
		return sessions[0].ck.Finish(complete)
	}
	k := newChecker(len(sessions), 0)
	k.partial = !complete
	for f, s := range sessions {
		k.feeds[f].client = s.Client
		base := 0
		for _, c := range s.chunks {
			k.add(f, c, base)
			base += len(c)
		}
	}
	return k.Finish(complete)
}

// CheckLinearizable searches for a legal sequential interleaving of the
// sessions using only results (version stamps and timestamps ignored). It
// is exponential in the worst case; callers gate it to histories of at
// most maxOps operations (it returns nil, vacuously, above that). A session
// that streamed chunks to a Checker no longer holds them, and the search
// cannot see them: it returns nil on such a history too. No history short
// enough for kv.Task's search is one, because a streamed session hands its
// first chunk over only at streamChunk records.
func CheckLinearizable(sessions []*Session, maxOps int) error {
	total := 0
	for _, s := range sessions {
		if s.held() < s.Len() {
			return nil
		}
		total += s.Len()
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
		if j >= s.Len() {
			continue
		}
		op := *s.At(j)
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
