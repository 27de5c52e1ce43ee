package kv

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
	"unsafe"

	"wfadvice/internal/explore"
	"wfadvice/internal/fdet"
	"wfadvice/internal/ids"
	"wfadvice/internal/paxos"
	"wfadvice/internal/sim"
	"wfadvice/internal/vec"
)

func TestStateApplyDedup(t *testing.T) {
	st := NewState(2)
	rep, fresh := st.ApplyReq(&Request{Client: 0, Seq: 1, Op: OpPut, Key: "a", Val: 7})
	if !fresh || rep.Val != 0 || rep.Ver != 1 {
		t.Fatalf("first put: rep=%+v fresh=%v", rep, fresh)
	}
	again, fresh := st.ApplyReq(&Request{Client: 0, Seq: 1, Op: OpPut, Key: "a", Val: 99})
	if fresh || again != rep {
		t.Fatalf("duplicate applied: rep=%+v fresh=%v", again, fresh)
	}
	if st.Get("a") != 7 {
		t.Fatalf("duplicate mutated state: a=%d", st.Get("a"))
	}
	rep, fresh = st.ApplyReq(&Request{Client: 1, Seq: 1, Op: OpGet, Key: "a"})
	if !fresh || rep.Val != 7 || rep.Ver != 2 {
		t.Fatalf("get: rep=%+v fresh=%v", rep, fresh)
	}
	if st.Applied(0) != 1 || st.LastReply(1).Ver != 2 {
		t.Fatalf("session table: applied=%d last=%+v", st.Applied(0), st.LastReply(1))
	}
}

func sess(c int, ops ...OpRecord) *Session { return NewSession(c, ops...) }

func TestCheckSessionsAcceptsLegalHistory(t *testing.T) {
	// c0: Put a=5 (ver1), lease Get a=5 (ver2 observed after c1's put? no —
	// lease ver must equal the applied ver it observed).
	s0 := sess(0,
		OpRecord{Op: OpPut, Key: "a", Arg: 5, Out: 0, Ver: 1},
		OpRecord{Op: OpGet, Key: "a", Out: 5, Ver: 1, Lease: true},
	)
	s1 := sess(1,
		OpRecord{Op: OpGet, Key: "a", Out: 5, Ver: 2},
		OpRecord{Op: OpPut, Key: "a", Arg: 9, Out: 5, Ver: 3},
	)
	if err := CheckSessions([]*Session{s0, s1}, true); err != nil {
		t.Fatalf("legal history rejected: %v", err)
	}
}

func TestCheckSessionsCatchesReplayMismatch(t *testing.T) {
	s0 := sess(0,
		OpRecord{Op: OpPut, Key: "a", Arg: 5, Out: 0, Ver: 1},
		OpRecord{Op: OpGet, Key: "a", Out: 6, Ver: 2}, // wrong read
	)
	err := CheckSessions([]*Session{s0}, true)
	if err == nil || !strings.Contains(err.Error(), "replay mismatch") {
		t.Fatalf("stale read not caught: %v", err)
	}
}

func TestCheckSessionsCatchesVersionAnomalies(t *testing.T) {
	backwards := sess(0,
		OpRecord{Op: OpPut, Key: "a", Arg: 5, Out: 0, Ver: 2},
		OpRecord{Op: OpPut, Key: "a", Arg: 6, Out: 5, Ver: 1},
	)
	if err := CheckSessions([]*Session{backwards}, true); err == nil {
		t.Fatal("non-monotone session versions accepted")
	}
	dup := []*Session{
		sess(0, OpRecord{Op: OpPut, Key: "a", Arg: 5, Out: 0, Ver: 1}),
		sess(1, OpRecord{Op: OpPut, Key: "b", Arg: 5, Out: 0, Ver: 1}),
	}
	err := CheckSessions(dup, true)
	if err == nil || !strings.Contains(err.Error(), "duplicate applied version") {
		t.Fatalf("duplicate version not caught: %v", err)
	}
	leaseWrite := sess(0, OpRecord{Op: OpPut, Key: "a", Arg: 5, Ver: 1, Lease: true})
	if err := CheckSessions([]*Session{leaseWrite}, true); err == nil {
		t.Fatal("lease-served write accepted")
	}
}

func TestCheckSessionsCatchesRealTimeViolation(t *testing.T) {
	// c0's put (ver 2) completed before c1's get (ver 1) started, yet the
	// get claims to linearize first.
	s0 := sess(0, OpRecord{Op: OpPut, Key: "a", Arg: 5, Out: 0, Ver: 2, Start: 10, End: 20})
	s1 := sess(1, OpRecord{Op: OpGet, Key: "b", Out: 0, Ver: 1, Start: 50, End: 60})
	err := CheckSessions([]*Session{s0, s1}, true)
	if err == nil || !strings.Contains(err.Error(), "real-time") {
		t.Fatalf("real-time violation not caught: %v", err)
	}
}

func TestCheckSessionsSameVersionLeaseReadsCommute(t *testing.T) {
	// Two lease reads observing the same version commute; the checker must
	// order them by invocation so the arbitrary session order cannot
	// manufacture a real-time violation (c0's read started after c1's
	// completed, yet c0 sorts first by client).
	s0 := sess(0,
		OpRecord{Op: OpPut, Key: "a", Arg: 5, Out: 0, Ver: 1, Start: 1, End: 2},
		OpRecord{Op: OpGet, Key: "a", Out: 5, Ver: 1, Lease: true, Start: 50, End: 60},
	)
	s1 := sess(1, OpRecord{Op: OpGet, Key: "a", Out: 5, Ver: 1, Lease: true, Start: 10, End: 20})
	if err := CheckSessions([]*Session{s0, s1}, true); err != nil {
		t.Fatalf("commuting lease reads rejected: %v", err)
	}
}

// stableSorted is the claimed order built the obvious way: concatenate the
// completed records, session by session, and sort them stably. A record is
// named by its session and its index there.
func stableSorted(sessions []*Session) [][2]int {
	var all [][2]int
	for s, sn := range sessions {
		for i, op := range sn.Ops {
			if !op.TimedOut {
				all = append(all, [2]int{s, i})
			}
		}
	}
	slices.SortStableFunc(all, func(a, b [2]int) int {
		return claimedBefore(sessions[a[0]].At(a[1]), sessions[b[0]].At(b[1]))
	})
	return all
}

// restream records sessions' records again into sessions streamed to a new
// checker with chunks of chunk records, taking the sessions' records in a
// random interleaving. Session open, unless it is -1, records only its
// first stop records and is never closed; the others close when they run
// out. visit, if not nil, is the checker's hook. The sessions must be
// clerks 0, 1, ... in order.
func restream(sessions []*Session, chunk int, rng *rand.Rand, open, stop int, visit func(f, i int)) *Checker {
	k := newChecker(len(sessions), chunk)
	k.visit = visit
	streamed := make([]*Session, len(sessions))
	left := make([][]OpRecord, len(sessions))
	for f, s := range sessions {
		k.feeds[f].stream = true
		streamed[f] = k.session(f)
		for _, op := range s.Ops {
			left[f] = append(left[f], op)
		}
		if f == open {
			left[f] = left[f][:stop]
		} else if len(left[f]) == 0 {
			streamed[f].close()
		}
	}
	for {
		var live []int
		for f := range left {
			if len(left[f]) > 0 {
				live = append(live, f)
			}
		}
		if len(live) == 0 {
			return k
		}
		f := live[rng.Intn(len(live))]
		streamed[f].add(left[f][0])
		if left[f] = left[f][1:]; len(left[f]) == 0 && f != open {
			streamed[f].close()
		}
	}
}

// TestClaimedOrderIsTheStableSort: the checker's merge of the sessions is
// the stable sort of their concatenation, on random histories (many
// sessions, lease reads piling up on one version with ties in Start,
// timed-out ops in between, empty sessions, sessions running over chunks
// of several sizes) and on the histories the sim backend produces, where
// every Start is zero and every lease-read tie is broken by session alone —
// fed all at once, and streamed in small chunks in a random interleaving,
// which judges each record once it passes the watermark.
func TestClaimedOrderIsTheStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	check := func(sessions []*Session) error {
		total := 0
		for _, s := range sessions {
			total += s.Len()
		}
		want := stableSorted(sessions)
		for _, chunk := range []int{0, 1 + rng.Intn(5), 1 + rng.Intn(40)} {
			var got [][2]int
			visit := func(f, i int) { got = append(got, [2]int{f, i}) }
			var k *Checker
			if chunk == 0 { // all at once, as CheckSessions feeds it
				k = newChecker(len(sessions), 0)
				k.visit = visit
				for f, s := range sessions {
					base := 0
					for _, c := range s.chunks {
						k.add(f, c, base)
						base += len(c)
					}
				}
			} else {
				k = restream(sessions, chunk, rng, -1, 0, visit)
			}
			if err := k.Finish(true); err != nil {
				return fmt.Errorf("chunks of %d: %v", chunk, err)
			}
			if !slices.Equal(got, want) {
				return fmt.Errorf("chunks of %d: merged order of %d ops differs from the stable sort", chunk, len(want))
			}
			if len(got)+k.timeouts != total {
				return fmt.Errorf("chunks of %d: %d ordered + %d timed out, want %d ops", chunk, len(got), k.timeouts, total)
			}
		}
		return nil
	}
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sessions := make([]*Session, 1+rng.Intn(9))
		clock := make([]int64, len(sessions))
		for c := range sessions {
			sessions[c] = newSession(c, c%3*7) // first chunks of 64, 7 and 14 records
		}
		ver := int64(0)
		for n := rng.Intn(400); n > 0; n-- {
			c := rng.Intn(len(sessions))
			s := sessions[c]
			clock[c] += int64(rng.Intn(2)) // ties in Start are common
			// No End: the sessions interleave at random, so their
			// timestamps need not respect real time.
			op := OpRecord{Op: OpGet, Key: "k", Start: clock[c]}
			last := int64(-1)
			for _, o := range s.Ops {
				if !o.TimedOut {
					last = o.Ver
				}
			}
			switch rng.Intn(4) {
			case 0:
				op.TimedOut = true
			case 1, 2:
				if last <= ver { // a lease read of the current version
					op.Ver, op.Lease = ver, true
					break
				}
				fallthrough
			default:
				ver++
				op.Ver, op.Op = ver, OpPut
			}
			s.add(op)
		}
		if err := check(sessions); err != nil {
			t.Fatalf("random seed %d: %v", seed, err)
		}
	}
	const n, ops = 3, 6
	kvSweep(t, 6, func(seed int64) (sim.Config, sim.Scheduler) {
		return kvSimConfig(n, ops, nil, 40, seed), uniform(seed)
	}, func(res *sim.Result) error {
		var sessions []*Session
		leases := 0
		for _, out := range res.Outputs {
			s := out.(*Session)
			sessions = append(sessions, s)
			for _, op := range s.Ops {
				if op.Start != 0 {
					return errors.New("an op has a start time")
				}
				if op.Lease {
					leases++
				}
			}
		}
		if leases == 0 {
			return errors.New("no lease read in the history, nothing ties")
		}
		return check(sessions)
	})
}

func TestCheckSessionsCatchesSessionOutOfInvocationOrder(t *testing.T) {
	// Two lease reads of one version whose starts run backwards: a clerk
	// issues its ops one after the other, so this is no session, and the
	// merge would not be the sort if it were let through.
	s0 := sess(0,
		OpRecord{Op: OpPut, Key: "a", Arg: 5, Out: 0, Ver: 1, Start: 1, End: 2},
		OpRecord{Op: OpGet, Key: "a", Out: 5, Ver: 1, Lease: true, Start: 50, End: 60},
		OpRecord{Op: OpGet, Key: "a", Out: 5, Ver: 1, Lease: true, Start: 10, End: 20},
	)
	err := CheckSessions([]*Session{s0}, true)
	if err == nil || !strings.Contains(err.Error(), "invocation order") {
		t.Fatalf("session with decreasing start times not caught: %v", err)
	}
}

func TestCheckSessionsIncompleteSkipsReplay(t *testing.T) {
	// A read of a value whose writer's session is missing: fine when
	// incomplete, a replay mismatch when claimed complete.
	s0 := sess(0, OpRecord{Op: OpGet, Key: "a", Out: 42, Ver: 2})
	if err := CheckSessions([]*Session{s0}, false); err != nil {
		t.Fatalf("incomplete history rejected: %v", err)
	}
	if err := CheckSessions([]*Session{s0}, true); err == nil {
		t.Fatal("orphan read accepted in complete history")
	}
}

func TestCheckSessionsTimeouts(t *testing.T) {
	// A timed-out Put whose apply went unseen: version 2 is absent from the
	// completed records but one op timed out, so the audit accepts, and the
	// unsound value replay is skipped.
	s0 := sess(0,
		OpRecord{Op: OpPut, Key: "a", Arg: 5, Out: 0, Ver: 1},
		OpRecord{Op: OpPut, Key: "b", Arg: 7, TimedOut: true},
	)
	s1 := sess(1, OpRecord{Op: OpGet, Key: "a", Out: 5, Ver: 3})
	if err := CheckSessions([]*Session{s0, s1}, true); err != nil {
		t.Fatalf("timed-out history rejected: %v", err)
	}
	// The same version gap with no timeout to license it is an error: the
	// service handed out a version nobody's session accounts for.
	g0 := sess(0, OpRecord{Op: OpPut, Key: "a", Arg: 5, Out: 0, Ver: 1})
	g1 := sess(1, OpRecord{Op: OpGet, Key: "a", Out: 5, Ver: 3})
	err := CheckSessions([]*Session{g0, g1}, true)
	if err == nil || !strings.Contains(err.Error(), "missing") {
		t.Fatalf("unlicensed version gap not caught: %v", err)
	}
	// One timeout licenses at most one gap.
	w0 := sess(0,
		OpRecord{Op: OpPut, Key: "a", Arg: 5, Out: 0, Ver: 1},
		OpRecord{Op: OpPut, Key: "b", Arg: 7, TimedOut: true},
	)
	w1 := sess(1, OpRecord{Op: OpGet, Key: "a", Out: 5, Ver: 4})
	err = CheckSessions([]*Session{w0, w1}, true)
	if err == nil || !strings.Contains(err.Error(), "missing") {
		t.Fatalf("double version gap under one timeout not caught: %v", err)
	}
}

func TestCheckLinearizableTimeouts(t *testing.T) {
	// The timed-out Put may have applied (c1 reads 2)...
	applied := []*Session{
		sess(0, OpRecord{Op: OpPut, Key: "a", Arg: 1, Out: 0},
			OpRecord{Op: OpPut, Key: "a", Arg: 2, TimedOut: true}),
		sess(1, OpRecord{Op: OpGet, Key: "a", Out: 2}),
	}
	if err := CheckLinearizable(applied, 20); err != nil {
		t.Fatalf("timed-out put (applied branch) rejected: %v", err)
	}
	// ...or never taken effect (c1 reads 1): both worlds are legal.
	skipped := []*Session{
		sess(0, OpRecord{Op: OpPut, Key: "a", Arg: 1, Out: 0},
			OpRecord{Op: OpPut, Key: "a", Arg: 2, TimedOut: true}),
		sess(1, OpRecord{Op: OpGet, Key: "a", Out: 1}),
	}
	if err := CheckLinearizable(skipped, 20); err != nil {
		t.Fatalf("timed-out put (skipped branch) rejected: %v", err)
	}
	// But it cannot un-apply: once a read sees 2, a later read cannot see 1.
	bad := []*Session{
		sess(0, OpRecord{Op: OpPut, Key: "a", Arg: 1, Out: 0},
			OpRecord{Op: OpPut, Key: "a", Arg: 2, TimedOut: true}),
		sess(1, OpRecord{Op: OpGet, Key: "a", Out: 2}, OpRecord{Op: OpGet, Key: "a", Out: 1}),
	}
	if err := CheckLinearizable(bad, 20); err == nil {
		t.Fatal("oscillation around a timed-out put accepted")
	}
}

func TestCheckLinearizable(t *testing.T) {
	ok := []*Session{
		sess(0, OpRecord{Op: OpPut, Key: "a", Arg: 1, Out: 0}, OpRecord{Op: OpGet, Key: "a", Out: 2}),
		sess(1, OpRecord{Op: OpPut, Key: "a", Arg: 2, Out: 1}),
	}
	if err := CheckLinearizable(ok, 20); err != nil {
		t.Fatalf("linearizable history rejected: %v", err)
	}
	bad := []*Session{
		sess(0, OpRecord{Op: OpPut, Key: "a", Arg: 1, Out: 0}),
		sess(1, OpRecord{Op: OpGet, Key: "a", Out: 1}, OpRecord{Op: OpGet, Key: "a", Out: 0}),
	}
	err := CheckLinearizable(bad, 20)
	if err == nil {
		t.Fatal("value oscillation accepted")
	}
	// Above the op bound the search is skipped (vacuous pass).
	if err := CheckLinearizable(bad, 2); err != nil {
		t.Fatalf("bounded search not skipped: %v", err)
	}
}

// kvSimConfig assembles a full kv system on the sim backend: n replicas
// chaining the log under LiveOmega advice, n clerks running ops-long
// scripts. Its step budget is the sweep's.
func kvSimConfig(n, ops int, crash map[int]fdet.Time, stabilize fdet.Time, seed int64) sim.Config {
	pat := fdet.NewPattern(n, crash)
	rc := ReplicaConfig{NC: n, NS: n, LeaseReads: true}
	cc := ClerkConfig{NC: n, NS: n, Ops: ops, PutFrac: 0.5}
	inputs := vec.New(n)
	for i := range inputs {
		inputs[i] = 100 + i
	}
	return sim.Config{
		NC: n, NS: n, Inputs: inputs,
		CBody:   cc.Body,
		SBody:   rc.Body,
		Pattern: pat,
		History: fdet.LiveOmega{}.History(pat, stabilize, seed),
	}
}

// kvSweep runs the kv system build returns for each of the seeds 0..seeds-1
// under its scheduler, and fails tb with the lowest seed whose run breaks the
// kv task (its sessions are not linearizable), leaves a clerk undecided, or
// fails extra when there is one.
func kvSweep(tb testing.TB, seeds int, build func(seed int64) (sim.Config, sim.Scheduler), extra func(res *sim.Result) error) {
	tb.Helper()
	out := explore.Sweep(func(seed int64) (explore.Spec, sim.Scheduler) {
		cfg, sched := build(seed)
		return explore.Spec{
			Name: "kv",
			New: func(maxSteps int) (*sim.Runtime, error) {
				cfg.MaxSteps = maxSteps
				return sim.New(cfg)
			},
			Check: func(res *sim.Result) error {
				if err := sim.Check(NewTask(cfg.NC), res); err != nil || extra == nil {
					return err
				}
				return extra(res)
			},
		}, sched
	}, 6_000_000, 0, seeds, 0)
	if err := out.Failure(); err != nil {
		tb.Fatal(err)
	}
}

// uniform is the uniform scheduler, until every clerk has decided.
func uniform(seed int64) sim.Scheduler { return &sim.StopWhenDecided{Inner: sim.NewRandom(seed)} }

func TestKVSimEndToEnd(t *testing.T) {
	const n, ops = 3, 4
	kvSweep(t, 8, func(seed int64) (sim.Config, sim.Scheduler) {
		return kvSimConfig(n, ops, nil, 40, seed), uniform(seed)
	}, func(res *sim.Result) error {
		for i, out := range res.Outputs {
			s := out.(*Session)
			if s.Len() != ops {
				return fmt.Errorf("clerk %d completed %d/%d ops", i, s.Len(), ops)
			}
			if len(s.chunks) != 1 || cap(s.chunks[0]) != ops {
				return fmt.Errorf("clerk %d's %d records sit in %d chunks, the first of %d: a script knows its length",
					i, ops, len(s.chunks), cap(s.chunks[0]))
			}
		}
		return nil
	})
}

// TestSessionChunks: a record packs into 64 bytes; a session gives its
// records back in order through Ops, At and Len across the first chunk's
// end, the growing chunks and the full-grown ones; a session of known length
// is one chunk of exactly that length; and an unknown one costs its records
// and at most one chunk more.
func TestSessionChunks(t *testing.T) {
	if got := unsafe.Sizeof(OpRecord{}); got != 64 {
		t.Errorf("OpRecord is %d bytes, want 64", got)
	}
	rec := func(i int) OpRecord { return OpRecord{Key: clerkKeys[i%len(clerkKeys)], Arg: int64(i)} }
	for _, first := range []int{0, 1, 5, chunkMin, chunkMax + 3} {
		s := newSession(7, first)
		n := first + 4*chunkMax + 17 // at least two full-grown chunks and a bit
		for i := range n {
			s.add(rec(i))
		}
		if s.Len() != n || s.Client != 7 {
			t.Fatalf("first=%d: Len %d, Client %d, want %d records of clerk 7", first, s.Len(), s.Client, n)
		}
		full := 0
		for k, c := range s.chunks {
			if k < len(s.chunks)-1 && len(c) != cap(c) {
				t.Fatalf("first=%d: chunk %d of %d holds %d of %d records", first, k, len(s.chunks), len(c), cap(c))
			}
			if k == 0 && first > 0 && cap(c) != first {
				t.Fatalf("first=%d: the first chunk holds %d", first, cap(c))
			}
			if k > 0 && cap(c) != min(max(2*cap(s.chunks[k-1]), chunkMin), chunkMax) {
				t.Fatalf("first=%d: chunk %d holds %d after one of %d", first, k, cap(c), cap(s.chunks[k-1]))
			}
			if cap(c) == chunkMax {
				full++
			}
		}
		if full < 2 {
			t.Errorf("first=%d: %d chunks of %d, want the cap reached", first, full, chunkMax)
		}
		for i := range n {
			if got := s.At(i); *got != rec(i) {
				t.Fatalf("first=%d: At(%d) = %+v", first, i, *got)
			}
		}
		next := 0
		for i, op := range s.Ops {
			if i != next || op != rec(i) {
				t.Fatalf("first=%d: Ops yielded %d %+v after %d records", first, i, op, next)
			}
			next++
		}
		if next != n {
			t.Fatalf("first=%d: Ops yielded %d of %d records", first, next, n)
		}
		for i := range s.Ops {
			if i == 3 {
				break // a loop may stop early
			}
		}
	}

	// Known length: one chunk of exactly that many records, whatever the
	// number — the session, its chunk list and the chunk.
	const known = 1000
	var s *Session
	if got := testing.AllocsPerRun(10, func() {
		s = newSession(0, known)
		for i := range known {
			s.add(rec(i))
		}
	}); got != 3 || len(s.chunks) != 1 || cap(s.chunks[0]) != known {
		t.Errorf("a session of %d known records made %v objects, %d chunks, the first of %d; want 3 objects, one chunk of %d",
			known, got, len(s.chunks), cap(s.chunks[0]), known)
	}
	if got := NewSession(0, rec(0), rec(1), rec(2)); len(got.chunks) != 1 || cap(got.chunks[0]) != 3 {
		t.Errorf("NewSession of 3 records: %d chunks, the first of %d", len(got.chunks), cap(got.chunks[0]))
	}

	// Unknown length: the records' bytes, the spare room of one chunk, and
	// a few KB for the session and its chunk list, which doubles. The
	// chunks' capacity says so exactly; the heap, read in the least of five
	// rounds since other goroutines allocate too, says nothing else is
	// copied or kept.
	for _, n := range []int{1, chunkMin + 1, 3 * chunkMax, 10*chunkMax + 1} {
		got := uint64(math.MaxUint64)
		for range 5 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			s = newSession(0, 0)
			for i := range n {
				s.add(rec(i))
			}
			runtime.ReadMemStats(&after)
			got = min(got, after.TotalAlloc-before.TotalAlloc)
		}
		room := 0
		for _, c := range s.chunks {
			room += cap(c)
		}
		if room > n+chunkMax {
			t.Errorf("%d closed-loop records sit in chunks of %d", n, room)
		}
		if limit := uint64(n+chunkMax)*64 + 8192; got > limit {
			t.Errorf("%d closed-loop records allocated %d B, want at most %d", n, got, limit)
		}
	}
}

func TestKVSimChaosFlap(t *testing.T) {
	// Hostile flapping advice before stabilization: leadership rotates
	// coherently every 32 steps for 400 steps, so replicas repeatedly win
	// and lose the lead mid-proposal (the abandon path) before LiveOmega
	// settles. Verdicts must not move: every clerk decides and the sessions
	// stay linearizable.
	kvSweep(t, 4, func(seed int64) (sim.Config, sim.Scheduler) {
		cfg := kvSimConfig(3, 3, nil, 400, seed)
		cfg.History = fdet.WithChaos(fdet.LiveOmega{}, fdet.AdviceChaos{Mode: fdet.ChaosFlap, Window: 32}).History(cfg.Pattern, 400, seed)
		return cfg, uniform(seed)
	}, nil)
}

func TestReplicaAbandonsInflightOnFlap(t *testing.T) {
	// The leadership edge in isolation: a replica that loses the advice
	// with a batch mid-flight abandons it (and counts the flap); gaining or
	// keeping the lead, or losing it with nothing in flight, changes
	// nothing.
	r := &replica{h: Telemetry.Handle(), wasLead: true, inflight: true,
		flight: []*Request{{Client: 0, Seq: 1}}, batchSeq: 3}
	r.noteLead(false)
	if r.inflight || r.flight != nil || r.wasLead {
		t.Fatalf("lead loss did not abandon the in-flight batch: %+v", r)
	}
	r.inflight, r.flight = true, []*Request{{Client: 1, Seq: 2}}
	r.noteLead(true) // regaining the lead keeps the (new) proposal
	r.noteLead(true)
	if !r.inflight || !r.wasLead {
		t.Fatalf("keeping the lead dropped the proposal: %+v", r)
	}
	r.noteLead(false)
	if r.inflight {
		t.Fatal("second lead loss kept the proposal in flight")
	}
	r.noteLead(false) // already a follower: nothing left to abandon
	if r.wasLead {
		t.Fatal("follower iterations did not track the edge")
	}
}

// TestBatchRenders: a batch prints by its requests' content, as fmt printed
// it when Reqs held values (the strings below are that rendering, recorded
// before Reqs held pointers), alone and as a paxos block's value, under %v
// for sim traces and %#v for the explorer's state hash; no address shows.
func TestBatchRenders(t *testing.T) {
	for _, c := range []struct {
		b          *Batch
		v, gv      string
		block, gbl string
	}{{
		&Batch{Proposer: 1, Seq: 2, Reqs: []*Request{{Client: 0, Seq: 1, Op: OpPut, Key: "k3", Val: 5}, {Client: 2, Seq: 4, Op: OpGet, Key: "k1"}}},
		`&{1 2 [{0 1 put k3 5} {2 4 get k1 0}]}`,
		`&kv.Batch{Proposer:1, Seq:2, Reqs:[]kv.Request{kv.Request{Client:0, Seq:1, Op:0x1, Key:"k3", Val:5}, kv.Request{Client:2, Seq:4, Op:0x0, Key:"k1", Val:0}}}`,
		`{1 1 &{1 2 [{0 1 put k3 5} {2 4 get k1 0}]}}`,
		`paxos.Block{MBal:1, Bal:1, Val:&kv.Batch{Proposer:1, Seq:2, Reqs:[]kv.Request{kv.Request{Client:0, Seq:1, Op:0x1, Key:"k3", Val:5}, kv.Request{Client:2, Seq:4, Op:0x0, Key:"k1", Val:0}}}}`,
	}, {
		&Batch{Proposer: 3, Seq: -1, Reqs: []*Request{{Client: 1, Seq: 9, Op: OpKind(7), Key: "a b\"c", Val: -3}}},
		`&{3 -1 [{1 9 get a b"c -3}]}`,
		`&kv.Batch{Proposer:3, Seq:-1, Reqs:[]kv.Request{kv.Request{Client:1, Seq:9, Op:0x7, Key:"a b\"c", Val:-3}}}`,
		`{1 1 &{3 -1 [{1 9 get a b"c -3}]}}`,
		`paxos.Block{MBal:1, Bal:1, Val:&kv.Batch{Proposer:3, Seq:-1, Reqs:[]kv.Request{kv.Request{Client:1, Seq:9, Op:0x7, Key:"a b\"c", Val:-3}}}}`,
	}, {
		&Batch{Proposer: 0, Seq: 7, Reqs: []*Request{}},
		`&{0 7 []}`,
		`&kv.Batch{Proposer:0, Seq:7, Reqs:[]kv.Request{}}`,
		`{1 1 &{0 7 []}}`,
		`paxos.Block{MBal:1, Bal:1, Val:&kv.Batch{Proposer:0, Seq:7, Reqs:[]kv.Request{}}}`,
	}, {
		&Batch{Proposer: 0, Seq: 7},
		`&{0 7 []}`,
		`&kv.Batch{Proposer:0, Seq:7, Reqs:[]kv.Request(nil)}`,
		`{1 1 &{0 7 []}}`,
		`paxos.Block{MBal:1, Bal:1, Val:&kv.Batch{Proposer:0, Seq:7, Reqs:[]kv.Request(nil)}}`,
	}} {
		blk := &paxos.Block{MBal: 1, Bal: 1, Val: c.b}
		for _, got := range []struct{ got, want string }{
			{fmt.Sprintf("%v", c.b), c.v},
			{fmt.Sprint(c.b), c.v},
			{fmt.Sprintf("%#v", c.b), c.gv},
			{fmt.Sprintf("%v", blk), c.block},
			{fmt.Sprintf("%v", *blk), c.block},
			{fmt.Sprintf("%#v", blk), c.gbl},
			{fmt.Sprintf("%#v", *blk), c.gbl},
		} {
			if got.got != got.want {
				t.Errorf("rendered %s, want %s", got.got, got.want)
			}
		}
	}
}

// TestBatchNamesClerkRequests: a batch copies no request. Every request of
// every batch written to a log register — a proposer's block or a decision —
// is the very pointer a clerk wrote to its request register. Advice flaps, so
// leaders abandon batches mid-flight and re-form them from the request
// registers: some request rides more than one batch, and is the clerk's in
// each.
func TestBatchNamesClerkRequests(t *testing.T) {
	const n, ops = 3, 16
	reformed, total := 0, 0
	for seed := int64(0); seed < 16; seed++ {
		cfg := kvSimConfig(n, ops, nil, 0, seed)
		cfg.CBody = ClerkConfig{NC: n, NS: n, Ops: ops, PutFrac: 0.9}.Body
		cfg.History = fdet.WithChaos(fdet.LiveOmega{}, fdet.AdviceChaos{Mode: fdet.ChaosFlap, Window: 48}).History(cfg.Pattern, 1<<30, seed)
		cfg.MaxSteps = 6_000_000
		rt, err := sim.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res := rt.Run(uniform(seed))
		if err := sim.Check(NewTask(n), res); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		written := map[*Request]bool{}
		batches := map[*Batch]bool{}
		for _, ev := range res.Trace {
			if ev.Kind != sim.OpWrite {
				continue
			}
			switch v := ev.Val.(type) {
			case *Request:
				written[v] = true
			case *Batch:
				batches[v] = true
			case *paxos.Block:
				if b, ok := v.Val.(*Batch); ok {
					batches[b] = true
				}
			}
		}
		riding := map[*Request]int{}
		for b := range batches {
			for _, req := range b.Reqs {
				if !written[req] {
					t.Fatalf("seed %d: batch %v carries request %+v at %p, which no clerk wrote", seed, b, *req, req)
				}
				riding[req]++
			}
		}
		again := 0
		for _, k := range riding {
			if k > 1 {
				again++
			}
		}
		reformed += again
		total += len(batches)
	}
	t.Logf("%d batches written to the log, %d requests in more than one", total, reformed)
	if reformed == 0 {
		t.Error("no request rode two batches: advice flapped, but no leader re-formed a batch")
	}
}

// TestMailboxValuesStayPut: a request, a reply or a decided batch register
// holds a pointer into its writer's slab, and a reader reads what the
// pointer holds after the read that returned it (the clerk its reply, the
// replica its request and the batches it applies, whose requests are the
// clerk's), so nothing a slab handed out may ever change. One clerk and one replica carry puts on the sim
// backend until every slab has rolled over past a full-grown chunk of
// sim.SlabMax values (the chunks before it hold under 2*SlabMax); every value
// read from a register must still hold what it was read with when the run is
// over.
func TestMailboxValuesStayPut(t *testing.T) {
	const ops = 3 * sim.SlabMax // one put per batch, so as many slots commit
	type read struct {
		req   *Request
		rep   *Reply
		batch *Batch
		was   any // a copy of what it held when it was read
	}
	var reads []read
	keep := func(v sim.Value) {
		switch v := v.(type) {
		case *Request:
			reads = append(reads, read{req: v, was: *v})
		case *Reply:
			reads = append(reads, read{rep: v, was: *v})
		case *Batch:
			reads = append(reads, read{batch: v, was: v.String()})
		}
	}
	watched := func(body func(int) sim.Body) func(int) sim.Body {
		return func(i int) sim.Body {
			b := body(i)
			return func(e sim.Ops) { b(keptReads{e, keep}) }
		}
	}
	pat := fdet.NewPattern(1, nil)
	rt, err := sim.New(sim.Config{
		NC: 1, NS: 1, Inputs: vec.Of(100),
		CBody:    watched(ClerkConfig{NC: 1, NS: 1, Ops: ops, PutFrac: 1}.Body),
		SBody:    watched(ReplicaConfig{NC: 1, NS: 1, LeaseReads: true}.Body),
		Pattern:  pat,
		History:  fdet.LiveOmega{}.History(pat, 0, 1),
		MaxSteps: 2_000_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := rt.Run(&sim.StopWhenDecided{Inner: &sim.RoundRobin{}})
	if err := sim.DecidedAll(res); err != nil {
		t.Fatalf("%v (reason %v after %d steps)", err, res.Reason, res.Steps)
	}
	reqs, reps, batches := map[*Request]bool{}, map[*Reply]bool{}, map[*Batch]bool{}
	for _, r := range reads {
		var now any
		switch {
		case r.req != nil:
			reqs[r.req], now = true, *r.req
		case r.rep != nil:
			reps[r.rep], now = true, *r.rep
		default:
			batches[r.batch], now = true, r.batch.String()
		}
		if now != r.was {
			t.Fatalf("a value read as %+v now holds %+v", r.was, now)
		}
	}
	if len(reqs) < ops || len(reps) < ops || len(batches) < ops {
		t.Fatalf("read %d distinct requests, %d replies and %d batches, want at least %d of each",
			len(reqs), len(reps), len(batches), ops)
	}
}

// keptReads hands every value its bound handles read to keep.
type keptReads struct {
	sim.Ops
	keep func(sim.Value)
}

func (o keptReads) Bind(keys []string) sim.Regs { return keptRegs{o.Ops.Bind(keys), o.keep} }

type keptRegs struct {
	sim.Regs
	keep func(sim.Value)
}

func (r keptRegs) Read(i int) sim.Value {
	v := r.Regs.Read(i)
	r.keep(v)
	return v
}

func (r keptRegs) ReadMany(dst []sim.Value) []sim.Value {
	vs := r.Regs.ReadMany(dst)
	for _, v := range vs {
		r.keep(v)
	}
	return vs
}

func TestKVSimLeaderCrash(t *testing.T) {
	// Replica 0 is the advised leader from stabilization (t=40) until its
	// crash at t=2000, mid-workload; LiveOmega then advises replica 1.
	kvSweep(t, 5, func(seed int64) (sim.Config, sim.Scheduler) {
		return kvSimConfig(3, 4, map[int]fdet.Time{0: 2000}, 40, seed), uniform(seed)
	}, func(res *sim.Result) error {
		if res.Steps <= 2000 {
			return fmt.Errorf("run ended at step %d, before the leader crash", res.Steps)
		}
		return nil
	})
}

// thenSettle follows Inner until every clerk has decided and then gives the
// replicas still up Steps more steps, in turn, so that each one sweeps to the
// end of the log and publishes where it got to. What the store holds after
// that is what the system keeps, not what a frozen replica had yet to read.
type thenSettle struct {
	Inner sim.Scheduler
	Steps int
	rr    sim.RoundRobin
}

func (s *thenSettle) Next(v *sim.View) (ids.Proc, bool) {
	if v.CRemaining() > 0 {
		return s.Inner.Next(v)
	}
	if s.Steps--; s.Steps < 0 {
		return ids.Proc{}, false
	}
	return s.rr.Next(v)
}

// reclaimRows are the schedules that could catch log reclamation out: the
// conformance grid's bursty scheduler (a replica frozen for up to 1 600
// scheduler calls wakes holding a window others have long left), with a
// leader crash on top, and with advice flapping every four ticks through
// most of the workload.
var reclaimRows = []struct {
	name      string
	crash     map[int]fdet.Time
	det       fdet.Detector
	stabilize fdet.Time
}{
	{"bursty", nil, fdet.LiveOmega{}, 40},
	{"bursty/leader-crash", map[int]fdet.Time{0: 2500}, fdet.LiveOmega{}, 40},
	{"bursty/flap:4", nil, fdet.WithChaos(fdet.LiveOmega{}, fdet.AdviceChaos{Mode: fdet.ChaosFlap, Window: 4}), 6000},
}

// TestReclaimUnderHostileSchedules runs the kv system with a log window of
// two slots, so that a replica slides, publishes and truncates every other
// slot, under each of reclaimRows: 24 seeds a row here (12 under -short),
// BenchmarkSweepReclaim the rest. Every run must pass the kv task (the
// sessions are linearizable) and must not touch a released register — the
// sim backend panics on that, and the sweep fails the seed. The log
// registers left once the replicas have settled are a few windows' worth
// however long the log grew; with a crashed replica, LagWindows more: its
// frontier register stays where it was and pins its window, and the
// survivors keep the LagWindows below their own.
func TestReclaimUnderHostileSchedules(t *testing.T) {
	seeds := 24
	if testing.Short() {
		seeds = 12
	}
	for row := range reclaimRows {
		t.Run(reclaimRows[row].name, func(t *testing.T) {
			t.Parallel()
			reclaimSweep(t, row, seeds)
		})
	}
}

// BenchmarkSweepReclaim is the wide range of TestReclaimUnderHostileSchedules:
// b.N seeds a row (CI runs it with -benchtime 200x).
func BenchmarkSweepReclaim(b *testing.B) {
	for row := range reclaimRows {
		b.Run(reclaimRows[row].name, func(b *testing.B) { reclaimSweep(b, row, b.N) })
	}
}

// reclaimSweep sweeps one of reclaimRows over the seeds 0..seeds-1.
func reclaimSweep(tb testing.TB, row, seeds int) {
	const (
		n, ops, window = 3, 16, 2
		// Windows a settled crash-free system may still hold: the one in use,
		// and those whose block registers the last leader keeps until its next
		// slide because a follower was frozen behind when it last published.
		heldWindows = 4
		perWindow   = window * (n + 1)
	)
	r := reclaimRows[row]
	kvSweep(tb, seeds, func(seed int64) (sim.Config, sim.Scheduler) {
		cfg := kvSimConfig(n, ops, r.crash, r.stabilize, seed)
		// Mostly puts, one to a batch: a slot per put, a slide every other.
		cfg.CBody = ClerkConfig{NC: n, NS: n, Ops: ops, PutFrac: 0.8}.Body
		cfg.SBody = ReplicaConfig{NC: n, NS: n, LeaseReads: true, Window: window, MaxBatch: 1}.Body
		cfg.History = r.det.History(cfg.Pattern, r.stabilize, seed)
		bursty := &sim.Bursty{Seed: seed, Burst: 40, FreezeProb: 0.25, FreezeLen: 1600}
		return cfg, &thenSettle{Inner: bursty, Steps: 4000}
	}, func(res *sim.Result) error {
		windows := heldWindows
		if r.crash != nil {
			windows += LagWindows
		}
		held, slots := 0, 0
		for k := range res.FinalStore {
			if strings.HasPrefix(k, LogPrefix+"/") && !isFrontierKey(k) {
				held++
			}
		}
		for _, ev := range res.Trace {
			if ev.Kind == sim.OpWrite && strings.HasSuffix(ev.Key, "/dec") && strings.HasPrefix(ev.Key, LogPrefix+"/") {
				slots++ // an upper bound: several replicas may write one decision
			}
		}
		if held > windows*perWindow {
			return fmt.Errorf("window %d: %d log registers left after at most %d decided slots, want at most %d windows' worth (%d)",
				window, held, slots, windows, windows*perWindow)
		}
		return nil
	})
}

// TestReplicaStepShapeAcrossWindows pins what the replicas do on the sim
// backend, step for step: the (process, op, key) sequence of three replicas
// carrying a put-only script across three slides of the log's bound window
// must hash to the recording taken before the log bound its registers a
// window at a time. Advice is stable from step 0, so no slot is ever
// contested and the recording is independent of how preemption is settled.
//
// Reclamation may add steps on the frontier registers and nothing else: the
// recording is compared over the events that are not on a frontier register,
// and those are counted — three slides, each replica writing its own and
// reading all three. So that the comparison tests the replicas and not the
// schedule, a step on a frontier register is granted as soon as it is
// pending, outside the corridor: the corridor's turns then fall on exactly
// the operations they fell on in the recording, provided the replicas do
// what they did there.
func TestReplicaStepShapeAcrossWindows(t *testing.T) {
	const (
		n, ops       = 3, 200 // one slot per op: windows at 0, 64, 128 and 192
		wantEvents   = 84582
		wantDigest   = uint64(0x36e124b140fc3601)
		wantFrontier = 3 * n * (1 + n)
	)
	pat := fdet.NewPattern(n, nil)
	rc := ReplicaConfig{NC: 1, NS: n}
	cc := ClerkConfig{NC: 1, NS: n, Ops: ops, PutFrac: 1}
	cfg := sim.Config{
		NC: 1, NS: n, Inputs: vec.Of(100),
		CBody:    cc.Body,
		SBody:    rc.Body,
		Pattern:  pat,
		History:  fdet.LiveOmega{}.History(pat, 0, 1),
		MaxSteps: 2_000_000,
	}
	rt, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The corridor: the clerk, then each replica, over and over.
	round := []ids.Proc{ids.C(0), ids.S(0), ids.S(1), ids.S(2)}
	var script []ids.Proc
	for i := 0; i < 60_000; i++ {
		script = append(script, round...)
	}
	res := rt.Run(&sim.StopWhenDecided{Inner: frontierFirst{&sim.Scripted{Seq: script}}})
	if err := sim.DecidedAll(res); err != nil {
		t.Fatalf("%v (reason %v after %d steps)", err, res.Reason, res.Steps)
	}
	h := fnv.New64a()
	events, frontier := 0, 0
	for _, ev := range res.Trace {
		switch {
		case !ev.Proc.IsS():
		case isFrontierKey(ev.Key):
			frontier++
		default:
			fmt.Fprintf(h, "%d %d %s\n", ev.Proc.Index, ev.Kind, ev.Key)
			events++
		}
	}
	if events != wantEvents || h.Sum64() != wantDigest {
		t.Errorf("replicas performed %d steps off the frontier registers with digest %#x, recorded %d and %#x", events, h.Sum64(), wantEvents, wantDigest)
	}
	if frontier != wantFrontier {
		t.Errorf("replicas performed %d steps on the frontier registers, want %d", frontier, wantFrontier)
	}
}

func isFrontierKey(key string) bool { return strings.HasPrefix(key, LogPrefix+"/frontier/") }

// frontierFirst grants a pending operation on a frontier register at once and
// leaves every other choice to the scheduler it wraps, which is not consulted
// for those steps.
type frontierFirst struct{ sim.Scheduler }

func (s frontierFirst) Next(v *sim.View) (ids.Proc, bool) {
	for _, p := range v.Ready {
		if isFrontierKey(v.Pending(p).Key) {
			return p, true
		}
	}
	return s.Scheduler.Next(v)
}

// runClerkAgainstClock runs one clerk issuing a single op with a 1000 ns
// timeout on the sim backend, its wall clock under the test's control: the
// first pause of the reply wait jumps the clock past the deadline, and
// onGrace runs inside the second — the one pause the clerk grants after
// first reading its deadline as passed. It returns the op as recorded and
// how often the clerk read its reply register.
func runClerkAgainstClock(t *testing.T, onGrace func(e sim.Ops)) (OpRecord, int) {
	t.Helper()
	const timeout = 1000
	now, pauses := int64(0), 0
	cc := ClerkConfig{
		NC: 1, NS: 1, Ops: 1, PutFrac: 1,
		Clock:     func() int64 { return now },
		Deadline:  1 << 40,
		OpTimeout: timeout,
		Pause: func(e sim.Ops, _ uint64) {
			switch pauses++; pauses {
			case 1:
				now = 2 * timeout
			case 2:
				onGrace(e)
			}
		},
	}
	rt, err := sim.New(sim.Config{
		NC: 1, Inputs: vec.Of(100), CBody: cc.Body,
		Pattern: fdet.FailureFree(0), MaxSteps: 1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := rt.Run(&sim.StopWhenDecided{Inner: &sim.RoundRobin{}})
	if err := sim.DecidedAll(res); err != nil {
		t.Fatalf("%v (reason %v)", err, res.Reason)
	}
	if pauses != 2 {
		t.Errorf("the reply wait paused %d times, want 2: one free poll, one grace", pauses)
	}
	reads := 0
	for _, ev := range res.Trace {
		if ev.Kind == sim.OpRead && ev.Key == RepKey(0) {
			reads++
		}
	}
	s := res.Outputs[0].(*Session)
	if s.Len() != 1 {
		t.Fatalf("session holds %d ops, want 1", s.Len())
	}
	return *s.At(0), reads
}

// A deadline read as passed is only armed; it takes a second reading, one
// pause and one poll later, to expire the op. A process-wide stall longer
// than OpTimeout therefore costs no op whose reply the replicas deliver as
// soon as they run again, while a dead service still times every op out.
func TestClerkDeadlineIsObservedTwice(t *testing.T) {
	rec, reads := runClerkAgainstClock(t, func(e sim.Ops) {
		e.Write(RepKey(0), &Reply{Seq: 1, Val: 7, Ver: 1})
	})
	if rec.TimedOut || rec.Out != 7 || reads != 3 {
		t.Errorf("reply landing in the grace pause: %+v after %d reply reads, want it completed by the third", rec, reads)
	}
	rec, reads = runClerkAgainstClock(t, func(sim.Ops) {})
	if !rec.TimedOut || reads != 3 {
		t.Errorf("silent service: %+v after %d reply reads, want TimedOut after exactly one poll beyond the first expiry", rec, reads)
	}
}

// runAsLeader runs body as the only S-process of a sim system, advised
// leader from step 0, so a test can drive replicas by hand (iterate, or
// apply and serve with an explicit lead) on a real backend handle.
func runAsLeader(t *testing.T, body sim.Body) {
	t.Helper()
	pat := fdet.NewPattern(1, nil)
	rt, err := sim.New(sim.Config{
		NS: 1, Inputs: vec.New(0),
		SBody:   func(int) sim.Body { return body },
		Pattern: pat, History: fdet.LiveOmega{}.History(pat, 0, 1),
		MaxSteps: 100_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res := rt.Run(&sim.RoundRobin{}); res.Reason != sim.ReasonAllDone {
		t.Fatalf("run ended %v after %d steps", res.Reason, res.Steps)
	}
}

// When a competitor decides the in-flight slot, the sweep that applies the
// decision also settles the proposal and releases the slot; the replica
// must not come back to the slot and mint a proposer nothing will release.
func TestPreemptedSlotsLeaveNoProposer(t *testing.T) {
	const rounds = 5
	rc := ReplicaConfig{NC: 1, NS: 2, MaxBatch: 1, Pause: func(sim.Ops, uint64) {}}
	runAsLeader(t, func(e sim.Ops) {
		r := newReplica(rc, 0, e, newReplicaKeys(rc.NC, rc.NS))
		rival := paxos.NewLog(e, LogPrefix, 1, rc.NS, 0)
		req := e.Bind(ReqKeys(1))
		for k := 1; k <= rounds; k++ {
			r.apply(true)
			req.Write(0, &Request{Client: 0, Seq: k, Op: OpPut, Key: "a", Val: int64(k)})
			slot := r.next
			if r.serve(true); !r.inflight || r.slot != slot {
				t.Errorf("round %d: no batch in flight at the frontier %d: %+v", k, slot, r)
				return
			}
			p := rival.Proposer(slot)
			p.SetProposal(&Batch{Proposer: 1, Seq: int64(k)})
			for decided := false; !decided; {
				_, decided = p.StepOp(true)
			}
			rival.Release(slot)

			r.iterate()
			if r.next <= slot {
				t.Errorf("round %d: frontier %d did not pass the preempted slot %d", k, r.next, slot)
			}
			// A proposer the log still held for the slot would have been
			// stepped to the decision; a freshly minted one has seen nothing.
			if _, stepped := r.log.Proposer(slot).Decided(); stepped {
				t.Errorf("round %d: the log still holds a proposer for slot %d, below the frontier %d", k, slot, r.next)
			}
			r.log.Release(slot)
		}
		if got := r.st.Applied(0); got != rounds-1 {
			t.Errorf("applied through seq %d, want %d: every preempted batch re-proposed and committed", got, rounds-1)
		}
	})
}

// A reply register is written by whoever is advised at the time, so a
// replica that was leading a moment ago can land a late write of an older
// reply on top of the current leader's. The leader believes it delivered
// and every other replica is a follower: unless the leader reads the
// register back, the clerk waits out its whole deadline on a live service.
func TestLeaderRestoresOverwrittenReply(t *testing.T) {
	rc := ReplicaConfig{NC: 1, NS: 1, MaxBatch: 1, LeaseReads: true, Pause: func(sim.Ops, uint64) {}}
	for _, op := range []OpKind{OpPut, OpGet} {
		runAsLeader(t, func(e sim.Ops) {
			r := newReplica(rc, 0, e, newReplicaKeys(rc.NC, rc.NS))
			req, rep := e.Bind(ReqKeys(1)), e.Bind(RepKeys(1))
			req.Write(0, &Request{Client: 0, Seq: 2, Op: op, Key: "a", Val: 5})
			r.iterate() // a put commits here and is delivered by the next sweep; a get is lease-served
			r.iterate()
			want, ok := rep.Read(0).(*Reply)
			if !ok || want.Seq != 2 || want.Lease != (op == OpGet) {
				t.Errorf("%v: reply register holds %+v after two iterations", op, rep.Read(0))
				return
			}
			rep.Write(0, &Reply{Seq: 1}) // the stale leader's late write
			for i := 0; i < redeliverAfter; i++ {
				r.iterate()
			}
			if got, _ := rep.Read(0).(*Reply); got == nil || *got != *want {
				t.Errorf("%v: reply register holds %+v after %d more iterations, want %+v back", op, got, redeliverAfter, *want)
			}
		})
	}
}

// freezeOne follows Inner, except that it holds Victim still from the first
// call at or after Start at which Victim's next operation satisfies At, until
// some process's next operation is on a log slot Span past the highest one
// any process had reached when it froze.
type freezeOne struct {
	Inner       sim.Scheduler
	Victim      ids.Proc
	At          func(op sim.PendingOp) bool
	Start, Span int

	calls, top, thaw int
	thawStep         int // the step at which Victim ran again
	frozen, thawed   bool
	ready            []ids.Proc
}

func (s *freezeOne) Next(v *sim.View) (ids.Proc, bool) {
	s.calls++
	for _, p := range v.Ready {
		if slot, ok := logSlot(v.Pending(p).Key); ok {
			s.top = max(s.top, slot)
		}
	}
	switch op := v.Pending(s.Victim); {
	case !s.frozen && !s.thawed && s.calls >= s.Start && s.At(op):
		s.frozen, s.thaw = true, s.top+s.Span
	case s.frozen && s.top >= s.thaw:
		s.frozen, s.thawed, s.thawStep = false, true, v.Step
	}
	if !s.frozen {
		return s.Inner.Next(v)
	}
	s.ready = s.ready[:0]
	for _, p := range v.Ready {
		if p != s.Victim {
			s.ready = append(s.ready, p)
		}
	}
	if len(s.ready) == 0 {
		return s.Inner.Next(v)
	}
	others := *v
	others.Ready = s.ready
	return s.Inner.Next(&others)
}

// logSlot returns the slot of a key of the kv log's instances.
func logSlot(key string) (int, bool) {
	rest, ok := strings.CutPrefix(key, LogPrefix+"/")
	if !ok {
		return 0, false
	}
	slot, err := strconv.Atoi(rest[:max(strings.IndexByte(rest, '/'), 0)])
	return slot, err == nil
}

// TestLaggardInstallsASnapshot runs the kv system with a log window of two
// slots while a scheduler freezes one replica, without crashing it, and keeps
// it frozen until the others are more than LagWindows windows ahead. It
// freezes the replica as it is about to announce a window on even seeds, and
// as it is about to read a decision on odd ones. The others write snapshots
// and give back the windows in between, so the laggard, once it runs again,
// must install one: had it skipped the install, or touched its next window
// before announcing it, the sim backend would fail the run on a released
// register. Advice flaps
// among all three replicas throughout, so the laggard also leads from the
// state it installed. Every seed's sessions must be linearizable — by the
// version replay and by the trustless search — every replica that swept as far as another must hold the same
// state, and the laggard must have skipped windows it never read.
func TestLaggardInstallsASnapshot(t *testing.T) {
	const (
		n, ops, window = 3, 48, 2
		seeds          = 8
	)
	victim := ids.S(n - 1)
	before := Telemetry.Snapshot()
	for seed := int64(0); seed < seeds; seed++ {
		reps := make([]*replica, n)
		rc := ReplicaConfig{NC: n, NS: n, LeaseReads: true, Window: window, MaxBatch: 1, Pause: awaitEpoch}
		cfg := kvSimConfig(n, ops, nil, 0, seed)
		cfg.CBody = ClerkConfig{NC: n, NS: n, Ops: ops, PutFrac: 0.9}.Body
		cfg.SBody = func(me int) sim.Body {
			return func(e sim.Ops) {
				reps[me] = newReplica(rc, me, e, newReplicaKeys(rc.NC, rc.NS))
				reps[me].run()
			}
		}
		flap := fdet.WithChaos(fdet.LiveOmega{}, fdet.AdviceChaos{Mode: fdet.ChaosFlap, Window: 300})
		cfg.History = flap.History(cfg.Pattern, 1<<30, seed)
		cfg.MaxSteps = 6_000_000
		rng := rand.New(rand.NewSource(seed))
		at := func(op sim.PendingOp) bool { return op.Kind == sim.OpWrite && op.Key == FrontierKey(victim.Index) }
		if seed%2 == 1 {
			at = func(op sim.PendingOp) bool { return op.Kind == sim.OpRead && strings.HasSuffix(op.Key, "/dec") }
		}
		freeze := &freezeOne{Inner: sim.NewRandom(seed), Victim: victim, At: at, Start: rng.Intn(4000), Span: (LagWindows + 4) * window}
		rt, err := sim.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res := runRecovered(t, seed, rt, &thenSettle{Inner: freeze, Steps: 20_000})
		if err := sim.Check(NewTask(n), res); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		var sessions []*Session
		for _, out := range res.Outputs {
			sessions = append(sessions, out.(*Session))
		}
		if err := CheckLinearizable(sessions, n*ops); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !freeze.thawed {
			t.Fatalf("seed %d: the replicas decided %d slots, too few to leave the frozen one %d windows behind", seed, freeze.top, LagWindows)
		}
		read := map[int]bool{}
		last, served := 0, 0
		for _, ev := range res.Trace {
			if ev.Proc == victim && ev.Kind == sim.OpWrite && ev.Step > freeze.thawStep && strings.HasPrefix(ev.Key, "kv/rep/") {
				served++
			}
			if slot, ok := logSlot(ev.Key); ok && ev.Proc == victim && ev.Kind == sim.OpRead && strings.HasSuffix(ev.Key, "/dec") {
				read[slot], last = true, max(last, slot)
			}
		}
		skipped := 0
		for slot := 0; slot < last; slot++ {
			if !read[slot] {
				skipped++
			}
		}
		t.Logf("seed %d: frozen until slot %d, skipped %d slots below %d, then wrote %d replies", seed, freeze.thaw, skipped, last, served)
		if skipped < LagWindows*window {
			t.Errorf("seed %d: the frozen replica read the decision of every slot below %d but %d: it swept, it did not install", seed, last, skipped)
		}
		if served == 0 {
			t.Errorf("seed %d: the frozen replica wrote no reply once it ran again: nothing served from the state it installed", seed)
		}
		for i, a := range reps {
			for _, b := range reps[i+1:] {
				if a.next == b.next && !reflect.DeepEqual(a.st, b.st) {
					t.Errorf("seed %d: replicas %d and %d swept to slot %d and hold different states:\n%+v\n%+v", seed, a.me, b.me, a.next, *a.st, *b.st)
				}
			}
		}
		if reps[victim.Index].next != reps[0].next {
			t.Errorf("seed %d: the frozen replica settled at slot %d, replica 0 at %d", seed, reps[victim.Index].next, reps[0].next)
		}
	}
	if got := Telemetry.Snapshot().Delta(before).Map()["kv_snapshot_install"]; got < seeds {
		t.Errorf("%d snapshots installed over %d seeds, want one a seed at least", got, seeds)
	}
}

// runRecovered runs rt under sched and fails t with the panic a body raised,
// such as the sim backend's use-after-release.
func runRecovered(t *testing.T, seed int64, rt *sim.Runtime, sched sim.Scheduler) (res *sim.Result) {
	t.Helper()
	defer func() {
		if p := recover(); p != nil {
			t.Fatalf("seed %d: %v", seed, p)
		}
	}()
	return rt.Run(sched)
}

// TestSnapshotAllocs: a replica of the benchmark's shape (eight keys, four
// clerks) takes a thousand snapshots, each installed into a second state as a
// laggard would, and the whole walk — every object allocated, counted once
// with runtime.MemStats — costs the chunks of the slabs the snapshots are
// cut from and a few objects more (two a chunk under -race, whose
// instrumented slices.Grow allocates its scratch too). A snapshot that boxed
// its parts, or an install that rebuilt the map, would cost thousands.
func TestSnapshotAllocs(t *testing.T) {
	const nc, warm, snaps = 4, 16, 1024
	r := &replica{st: NewState(nc)}
	dst := NewState(nc)
	walk := func(n int) {
		for range n {
			r.next++
			r.st.ApplyReq(&Request{Client: r.next % nc, Seq: r.next, Op: OpPut, Key: clerkKeys[r.next%len(clerkKeys)], Val: int64(r.next)})
			dst.install(r.snapshot())
		}
	}
	walk(warm)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	walk(snaps)
	runtime.ReadMemStats(&after)
	objects := after.Mallocs - before.Mallocs
	if !reflect.DeepEqual(r.st, dst) {
		t.Fatalf("installed state %+v, want %+v", *dst, *r.st)
	}
	chunks := 0
	for _, per := range []int{1, len(clerkKeys), nc} { // the snapshot, its puts, its replies
		chunks += snaps*per/sim.SlabMax + 1
	}
	t.Logf("%d snapshots and installs: %d objects, against %d slab chunks", snaps, objects, chunks)
	if want := uint64(2*chunks + 16); objects > want {
		t.Errorf("%d snapshots and installs allocated %d objects, want at most %d: the slabs' chunks and a few", snaps, objects, want)
	}
}
