package kv

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"wfadvice/internal/fdet"
	"wfadvice/internal/ids"
	"wfadvice/internal/paxos"
	"wfadvice/internal/sim"
	"wfadvice/internal/vec"
)

func TestStateApplyDedup(t *testing.T) {
	st := NewState(2, 4)
	rep, fresh := st.ApplyReq(Request{Client: 0, Seq: 1, Op: OpPut, Key: "a", Val: 7})
	if !fresh || rep.Val != 0 || rep.Ver != 1 {
		t.Fatalf("first put: rep=%+v fresh=%v", rep, fresh)
	}
	again, fresh := st.ApplyReq(Request{Client: 0, Seq: 1, Op: OpPut, Key: "a", Val: 99})
	if fresh || again != rep {
		t.Fatalf("duplicate applied: rep=%+v fresh=%v", again, fresh)
	}
	if st.Get("a") != 7 {
		t.Fatalf("duplicate mutated state: a=%d", st.Get("a"))
	}
	rep, fresh = st.ApplyReq(Request{Client: 1, Seq: 1, Op: OpGet, Key: "a"})
	if !fresh || rep.Val != 7 || rep.Ver != 2 {
		t.Fatalf("get: rep=%+v fresh=%v", rep, fresh)
	}
	if st.Applied(0) != 1 || st.LastReply(1).Ver != 2 {
		t.Fatalf("session table: applied=%d last=%+v", st.Applied(0), st.LastReply(1))
	}
}

func sess(c int, ops ...OpRecord) *Session { return &Session{Client: c, Ops: ops} }

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
// completed records, session by session, and sort them stably.
func stableSorted(sessions []*Session) []opRef {
	var all []opRef
	for s, sn := range sessions {
		for i, op := range sn.Ops {
			if !op.TimedOut {
				all = append(all, opRef{int32(s), int32(i)})
			}
		}
	}
	slices.SortStableFunc(all, func(a, b opRef) int {
		return claimedBefore(&sessions[a.s].Ops[a.i], &sessions[b.s].Ops[b.i])
	})
	return all
}

// TestClaimedOrderIsTheStableSort: the merge of the sessions is the stable
// sort of their concatenation, on random histories (many sessions, lease
// reads piling up on one version with ties in Start, timed-out ops in
// between, empty sessions) and on the histories the sim backend produces,
// where every Start is zero and every lease-read tie is broken by session
// alone.
func TestClaimedOrderIsTheStableSort(t *testing.T) {
	check := func(name string, sessions []*Session) {
		t.Helper()
		got, timeouts, err := claimedOrder(sessions)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := stableSorted(sessions)
		if !slices.Equal(got, want) {
			t.Fatalf("%s: merged order of %d ops differs from the stable sort", name, len(want))
		}
		total := 0
		for _, s := range sessions {
			total += len(s.Ops)
		}
		if len(got)+timeouts != total {
			t.Fatalf("%s: %d ordered + %d timed out, want %d ops", name, len(got), timeouts, total)
		}
	}
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sessions := make([]*Session, 1+rng.Intn(9))
		clock := make([]int64, len(sessions))
		for c := range sessions {
			sessions[c] = &Session{Client: c}
		}
		ver := int64(0)
		for n := rng.Intn(400); n > 0; n-- {
			c := rng.Intn(len(sessions))
			s := sessions[c]
			clock[c] += int64(rng.Intn(2)) // ties in Start are common
			op := OpRecord{Op: OpGet, Key: "k", Start: clock[c], End: clock[c] + 1}
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
			s.Ops = append(s.Ops, op)
		}
		check(fmt.Sprintf("random seed %d", seed), sessions)
	}
	const n, ops = 3, 6
	for seed := int64(0); seed < 6; seed++ {
		res := runKV(t, kvSimConfig(n, ops, nil, 40, seed, 4_000_000), n, seed)
		var sessions []*Session
		leases := 0
		for _, out := range res.Outputs {
			s := out.(*Session)
			sessions = append(sessions, s)
			for _, op := range s.Ops {
				if op.Start != 0 {
					t.Fatalf("sim seed %d: an op has a start time", seed)
				}
				if op.Lease {
					leases++
				}
			}
		}
		if leases == 0 {
			t.Fatalf("sim seed %d: no lease read in the history, nothing ties", seed)
		}
		check(fmt.Sprintf("sim seed %d", seed), sessions)
	}
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
// scripts.
func kvSimConfig(n, ops int, crash map[int]fdet.Time, stabilize fdet.Time, seed int64, maxSteps int) sim.Config {
	pat := fdet.NewPattern(n, crash)
	rc := ReplicaConfig{NC: n, NS: n, LeaseReads: true}
	cc := ClerkConfig{NC: n, NS: n, Ops: ops}
	inputs := vec.New(n)
	for i := range inputs {
		inputs[i] = 100 + i
	}
	return sim.Config{
		NC: n, NS: n, Inputs: inputs,
		CBody:    cc.Body,
		SBody:    rc.Body,
		Pattern:  pat,
		History:  fdet.LiveOmega{}.History(pat, stabilize, seed),
		MaxSteps: maxSteps,
	}
}

func runKV(t *testing.T, cfg sim.Config, n int, seed int64) *sim.Result {
	t.Helper()
	rt, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := rt.Run(&sim.StopWhenDecided{Inner: sim.NewRandom(seed)})
	if err := sim.CheckTask(NewTask(n), res); err != nil {
		t.Fatalf("seed %d: %v (reason %v)", seed, err, res.Reason)
	}
	return res
}

func TestKVSimEndToEnd(t *testing.T) {
	const n, ops = 3, 4
	for seed := int64(0); seed < 8; seed++ {
		res := runKV(t, kvSimConfig(n, ops, nil, 40, seed, 4_000_000), n, seed)
		if err := sim.DecidedAll(res); err != nil {
			t.Fatalf("seed %d: %v (reason %v)", seed, err, res.Reason)
		}
		for i, out := range res.Outputs {
			s := out.(*Session)
			if len(s.Ops) != ops {
				t.Fatalf("seed %d: clerk %d completed %d/%d ops", seed, i, len(s.Ops), ops)
			}
			if cap(s.Ops) != ops {
				t.Fatalf("seed %d: clerk %d's %d records sit in a slice of %d: a script knows its length", seed, i, ops, cap(s.Ops))
			}
		}
	}
}

// TestClerkRecordCapacity: a session's record slice is sized from what the
// clerk knows when it fills — the script length, the open-loop schedule, or a
// closed-loop clerk's own rate since it last asked, once a sixteenth of the
// window has passed.
func TestClerkRecordCapacity(t *testing.T) {
	clock := func() int64 { return 0 }
	const second = int64(1e9)
	for _, tc := range []struct {
		name      string
		cfg       ClerkConfig
		prev, cur pace
		want      int
	}{
		{"script", ClerkConfig{Ops: 40}, pace{}, pace{}, 40},
		{"script under a clock", ClerkConfig{Ops: 40, Clock: clock, Deadline: second}, pace{}, pace{7, second / 2}, 40},
		{"no clock, no script", ClerkConfig{}, pace{}, pace{done: 5}, 0},
		{"open loop", ClerkConfig{Clock: clock, Deadline: second, Interval: 300e6}, pace{}, pace{}, 4}, // due at 0, 0.3, 0.6, 0.9 s
		{"open loop, whole intervals", ClerkConfig{Clock: clock, Deadline: second, Interval: 250e6}, pace{}, pace{}, 4},
		{"closed loop, too early", ClerkConfig{Clock: clock, Deadline: second}, pace{}, pace{64, second / 100}, 0},
		// 800 in the first tenth: 7200 to come, and a quarter of that.
		{"closed loop, first estimate", ClerkConfig{Clock: clock, Deadline: second}, pace{}, pace{800, second / 10}, 800 + 9000},
		// 8000 since the first estimate, in 0.4 s: 10000 in the remaining half.
		{"closed loop, rate since the last estimate", ClerkConfig{Clock: clock, Deadline: second}, pace{800, second / 10}, pace{8800, second / 2}, 8800 + 12500},
		{"closed loop, past the deadline", ClerkConfig{Clock: clock, Deadline: second}, pace{}, pace{800, 2 * second}, 300},
	} {
		if got := tc.cfg.records(tc.prev, tc.cur); got != tc.want {
			t.Errorf("%s: records(%v, %v) = %d, want %d", tc.name, tc.prev, tc.cur, got, tc.want)
		}
	}
}

func TestKVSimChaosFlap(t *testing.T) {
	// Hostile flapping advice before stabilization: leadership rotates
	// coherently every 32 steps for 400 steps, so replicas repeatedly win
	// and lose the lead mid-proposal (the abandon path) before LiveOmega
	// settles. Verdicts must not move: every clerk decides and the sessions
	// stay linearizable.
	const n, ops = 3, 3
	for seed := int64(0); seed < 4; seed++ {
		cfg := kvSimConfig(n, ops, nil, 400, seed, 6_000_000)
		pat := fdet.NewPattern(n, nil)
		cfg.History = fdet.Flap(fdet.LiveOmega{}, 32).History(pat, 400, seed)
		res := runKV(t, cfg, n, seed)
		if err := sim.DecidedAll(res); err != nil {
			t.Fatalf("seed %d: %v (reason %v)", seed, err, res.Reason)
		}
	}
}

func TestReplicaAbandonsInflightOnFlap(t *testing.T) {
	// The leadership edge in isolation: a replica that loses the advice
	// with a batch mid-flight abandons it (and counts the flap); gaining or
	// keeping the lead, or losing it with nothing in flight, changes
	// nothing.
	r := &replica{h: Telemetry.Handle(), wasLead: true, inflight: true,
		flight: []Request{{Client: 0, Seq: 1}}, batchSeq: 3}
	r.noteLead(false)
	if r.inflight || r.flight != nil || r.wasLead {
		t.Fatalf("lead loss did not abandon the in-flight batch: %+v", r)
	}
	r.inflight, r.flight = true, []Request{{Client: 1, Seq: 2}}
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

func TestKVSimLeaderCrash(t *testing.T) {
	const n, ops = 3, 4
	// Replica 0 is the advised leader from stabilization (t=40) until its
	// crash at t=2000, mid-workload; LiveOmega then advises replica 1.
	for seed := int64(0); seed < 5; seed++ {
		crash := map[int]fdet.Time{0: 2000}
		res := runKV(t, kvSimConfig(n, ops, crash, 40, seed, 4_000_000), n, seed)
		if err := sim.DecidedAll(res); err != nil {
			t.Fatalf("seed %d: %v (reason %v)", seed, err, res.Reason)
		}
		if res.Steps <= 2000 {
			t.Fatalf("seed %d: run ended at step %d, before the leader crash", seed, res.Steps)
		}
	}
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

// TestReclaimUnderHostileSchedules runs the kv system with a log window of
// two slots, so that a replica slides, publishes and truncates every other
// slot, under the schedules that could catch reclamation out: the
// conformance grid's bursty scheduler (a replica frozen for up to 1 600
// scheduler calls wakes holding a window others have long left), with a
// leader crash on top, and with advice flapping every four ticks through
// most of the workload. Every run must pass the kv task (the sessions are
// linearizable) and must not touch a released register — the sim backend
// panics on that, and the panic comes out of Run. On the crash-free rows the
// log registers left once the replicas have settled are a few windows' worth
// however long the log grew; with a crashed replica they are not (its
// frontier register stays where it was and pins every later window), which
// is the pin the native crash test documents too.
func TestReclaimUnderHostileSchedules(t *testing.T) {
	const (
		n, ops, window = 3, 16, 2
		// Windows a settled crash-free system may still hold: the one in use,
		// and those whose block registers the last leader keeps until its next
		// slide because a follower was frozen behind when it last published.
		heldWindows = 4
		perWindow   = window * (n + 1)
	)
	seeds := int64(200)
	if testing.Short() {
		seeds = 12
	}
	sched := sim.Bursty{Burst: 40, FreezeProb: 0.25, FreezeLen: 1600}
	for _, row := range []struct {
		name      string
		crash     map[int]fdet.Time
		det       fdet.Detector
		stabilize fdet.Time
	}{
		{"bursty", nil, fdet.LiveOmega{}, 40},
		{"bursty/leader-crash", map[int]fdet.Time{0: 2500}, fdet.LiveOmega{}, 40},
		{"bursty/flap:4", nil, fdet.Flap(fdet.LiveOmega{}, 4), 6000},
	} {
		t.Run(row.name, func(t *testing.T) {
			t.Parallel()
			most, fewest := 0, 1<<30
			for seed := int64(0); seed < seeds; seed++ {
				cfg := kvSimConfig(n, ops, row.crash, row.stabilize, seed, 6_000_000)
				// Mostly puts, one to a batch: a slot per put, a slide every other.
				cfg.CBody = ClerkConfig{NC: n, NS: n, Ops: ops, PutFrac: 0.8}.Body
				cfg.SBody = ReplicaConfig{NC: n, NS: n, LeaseReads: true, Window: window, MaxBatch: 1}.Body
				cfg.History = row.det.History(cfg.Pattern, row.stabilize, seed)
				b := sched
				b.Seed = seed
				where := fmt.Sprintf("seed %d, window %d, bursty{burst %d, freeze-prob %v, freeze-len %d}",
					seed, window, b.Burst, b.FreezeProb, b.FreezeLen)
				rt, err := sim.New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				var res *sim.Result
				func() {
					defer func() {
						if x := recover(); x != nil {
							t.Fatalf("%s: %v", where, x)
						}
					}()
					res = rt.Run(&thenSettle{Inner: &b, Steps: 4000})
				}()
				if err := sim.CheckTask(NewTask(n), res); err != nil {
					t.Fatalf("%s: %v (reason %v)", where, err, res.Reason)
				}
				if err := sim.DecidedAll(res); err != nil {
					t.Fatalf("%s: %v (reason %v after %d steps)", where, err, res.Reason, res.Steps)
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
				most, fewest = max(most, held), min(fewest, slots)
				if row.crash == nil && held > heldWindows*perWindow {
					t.Fatalf("%s: %d log registers left after at most %d decided slots, want at most %d windows' worth (%d)",
						where, held, slots, heldWindows, heldWindows*perWindow)
				}
			}
			t.Logf("%d seeds: at most %d log registers left, at least %d decision writes", seeds, most, fewest)
		})
	}
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
		if isFrontierKey(v.Pending[p].Key) {
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
	if len(s.Ops) != 1 {
		t.Fatalf("session holds %d ops, want 1", len(s.Ops))
	}
	return s.Ops[0], reads
}

// A deadline read as passed is only armed; it takes a second reading, one
// pause and one poll later, to expire the op. A process-wide stall longer
// than OpTimeout therefore costs no op whose reply the replicas deliver as
// soon as they run again, while a dead service still times every op out.
func TestClerkDeadlineIsObservedTwice(t *testing.T) {
	rec, reads := runClerkAgainstClock(t, func(e sim.Ops) {
		e.Write(RepKey(0), Reply{Seq: 1, Val: 7, Ver: 1})
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
	rc := ReplicaConfig{NC: 1, NS: 2, Shards: 1, MaxBatch: 1, Pause: func(sim.Ops, uint64) {}}
	runAsLeader(t, func(e sim.Ops) {
		r := newReplica(rc, 0, e)
		rival := paxos.NewLog(e, LogPrefix, 1, rc.NS, 0)
		req := e.Bind(ReqKeys(1))
		for k := 1; k <= rounds; k++ {
			r.apply(true)
			req.Write(0, Request{Client: 0, Seq: k, Op: OpPut, Key: "a", Val: int64(k)})
			slot := r.next
			if r.serve(true); !r.inflight || r.slot != slot {
				t.Errorf("round %d: no batch in flight at the frontier %d: %+v", k, slot, r)
				return
			}
			p := rival.Proposer(slot)
			p.SetProposal(Batch{Proposer: 1, Seq: int64(k)})
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
	rc := ReplicaConfig{NC: 1, NS: 1, Shards: 1, MaxBatch: 1, LeaseReads: true, Pause: func(sim.Ops, uint64) {}}
	for _, op := range []OpKind{OpPut, OpGet} {
		runAsLeader(t, func(e sim.Ops) {
			r := newReplica(rc, 0, e)
			req, rep := e.Bind(ReqKeys(1)), e.Bind(RepKeys(1))
			req.Write(0, Request{Client: 0, Seq: 2, Op: op, Key: "a", Val: 5})
			r.iterate() // a put commits here and is delivered by the next sweep; a get is lease-served
			r.iterate()
			want, ok := rep.Read(0).(Reply)
			if !ok || want.Seq != 2 || want.Lease != (op == OpGet) {
				t.Errorf("%v: reply register holds %+v after two iterations", op, rep.Read(0))
				return
			}
			rep.Write(0, Reply{Seq: 1}) // the stale leader's late write
			for i := 0; i < redeliverAfter; i++ {
				r.iterate()
			}
			if got := rep.Read(0); got != want {
				t.Errorf("%v: reply register holds %+v after %d more iterations, want %+v back", op, got, redeliverAfter, want)
			}
		})
	}
}
