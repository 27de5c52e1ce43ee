package kv

import (
	"math/rand"
	"sync"
	"testing"
)

// The mutations FuzzCheckSessionFeeds applies to a legal history, one at
// most.
const (
	mutNone = iota
	mutWrongOut
	mutDuplicateVersion
	mutVersionRegress
	mutLeasePut
	mutRealTime
	mutDropApplied
	mutations
)

// legalHistory runs a sequential model of the service over n sessions and
// returns their records: puts, gets through the log, lease reads at the
// version the state has, and, with timeouts, ops whose reply never came. A
// timed-out op applies, unseen, before its session's next op, or never.
// With timed, an op's start and end straddle its place in the model's
// sequence, and a session's ops follow one another; without, every
// timestamp is zero, as on sim.
func legalHistory(rng *rand.Rand, n int, timed, timeouts bool) [][]OpRecord {
	keys := [...]string{"a", "b", "c"}
	state := map[string]int64{}
	var ver, now int64
	recs := make([][]OpRecord, n)
	free := make([]int64, n) // the earliest start of a session's next op
	type unseen struct {
		op  OpKind
		key string
		arg int64
	}
	pending := make([]*unseen, n)
	apply := func(u *unseen) {
		ver++
		if u.op == OpPut {
			state[u.key] = u.arg
		}
	}
	for steps := 1 + rng.Intn(120); steps > 0; steps-- {
		for c, u := range pending {
			if u != nil && rng.Intn(4) == 0 {
				apply(u)
				pending[c] = nil
			}
		}
		c := rng.Intn(n)
		if u := pending[c]; u != nil {
			if rng.Intn(2) == 0 {
				apply(u)
			}
			pending[c] = nil
		}
		now = max(now, free[c]) + 1 + int64(rng.Intn(3))
		op := OpRecord{Key: keys[rng.Intn(len(keys))]}
		if timed {
			op.Start = max(free[c], now-int64(rng.Intn(4)))
			op.End = now + int64(rng.Intn(5))
			free[c] = op.End + 1
		}
		switch r := rng.Intn(10); {
		case timeouts && r == 0:
			op.Op, op.TimedOut = OpKind(rng.Intn(2)), true
			if op.Op == OpPut {
				op.Arg = 1 + rng.Int63n(100)
			}
			pending[c] = &unseen{op.Op, op.Key, op.Arg}
		case r < 4:
			op.Op, op.Arg, op.Out = OpPut, 1+rng.Int63n(100), state[op.Key]
			ver++
			op.Ver = ver
			state[op.Key] = op.Arg
		case r < 6:
			ver++
			op.Op, op.Out, op.Ver = OpGet, state[op.Key], ver
		default:
			op.Op, op.Out, op.Ver, op.Lease = OpGet, state[op.Key], ver, true
		}
		recs[c] = append(recs[c], op)
	}
	return recs
}

// mutate applies mutation m to recs, and reports whether it found records
// to apply it to.
func mutate(rng *rand.Rand, recs [][]OpRecord, m int) bool {
	type at struct{ c, i int }
	var done, applied []at
	for c := range recs {
		for i, op := range recs[c] {
			if op.TimedOut {
				continue
			}
			done = append(done, at{c, i})
			if !op.Lease {
				applied = append(applied, at{c, i})
			}
		}
	}
	pick := func(xs []at) (at, bool) {
		if len(xs) == 0 {
			return at{}, false
		}
		return xs[rng.Intn(len(xs))], true
	}
	switch m {
	case mutWrongOut:
		x, ok := pick(done)
		if ok {
			recs[x.c][x.i].Out++
		}
		return ok
	case mutDuplicateVersion:
		if len(applied) < 2 {
			return false
		}
		a, b := applied[rng.Intn(len(applied))], applied[rng.Intn(len(applied))]
		if a == b {
			return false
		}
		recs[b.c][b.i].Ver = recs[a.c][a.i].Ver
		return true
	case mutVersionRegress:
		// A record below the session's versioned record before it.
		var later []at
		for _, x := range done {
			for i := x.i - 1; i >= 0; i-- {
				if !recs[x.c][i].TimedOut {
					later = append(later, x)
					break
				}
			}
		}
		x, ok := pick(later)
		if ok {
			for i := x.i - 1; ; i-- {
				if p := recs[x.c][i]; !p.TimedOut {
					recs[x.c][x.i].Ver = p.Ver - 1
					break
				}
			}
		}
		return ok
	case mutLeasePut:
		var puts []at
		for _, x := range applied {
			if recs[x.c][x.i].Op == OpPut {
				puts = append(puts, x)
			}
		}
		x, ok := pick(puts)
		if ok {
			recs[x.c][x.i].Lease = true
		}
		return ok
	case mutRealTime:
		// b, after a in the claimed order, completes before a starts.
		a, ok1 := pick(done)
		b, ok2 := pick(done)
		ra, rb := &recs[a.c][a.i], &recs[b.c][b.i]
		if !ok1 || !ok2 || ra.End == 0 || ra.Start < 2 || claimedBefore(ra, rb) >= 0 {
			return false
		}
		rb.End = ra.Start - 1
		return true
	case mutDropApplied:
		x, ok := pick(applied)
		if ok {
			recs[x.c] = append(recs[x.c][:x.i:x.i], recs[x.c][x.i+1:]...)
		}
		return ok
	}
	return false
}

// FuzzCheckSessionFeeds: the checker's two feeds agree. A legal history
// from a sequential model, with at most one mutation, is checked all at
// once (CheckSessions) and streamed, its sessions cut into chunks of a
// random length and their records sealed in a random interleaving. With
// incomplete set, one session stops part way and never decides: the
// all-at-once feed gets the others, the streaming feed what that session
// sealed before it stopped.
//
//   - A legal history passes both feeds.
//   - On a complete history the verdicts are equal, with timeouts or
//     without: the records replayed do not depend on the interleaving.
//   - The streaming feed fails whenever the all-at-once feed fails; it may
//     fail alone only on an incomplete history, where the all-at-once feed
//     skips the replay and the version audit.
//   - On a complete history without timeouts, every mutation but a dropped
//     record is caught.
func FuzzCheckSessionFeeds(f *testing.F) {
	for m := range mutations {
		for flags := range 8 {
			f.Add(int64(m*8+flags), uint8(m), uint8(flags))
		}
	}
	f.Fuzz(func(t *testing.T, seed int64, m, flags uint8) {
		timed, timeouts, incomplete := flags&1 != 0, flags&2 != 0, flags&4 != 0
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(3)
		recs := legalHistory(rng, n, timed, timeouts)
		mutated := m > 0 && m < mutations && mutate(rng, recs, int(m))
		sessions := make([]*Session, n)
		hasTimeout := false
		for c := range recs {
			sessions[c] = NewSession(c, recs[c]...)
			for _, op := range recs[c] {
				hasTimeout = hasTimeout || op.TimedOut
			}
		}
		open, stop := -1, 0
		decided := sessions
		if incomplete {
			open = rng.Intn(n)
			stop = rng.Intn(len(recs[open]) + 1)
			decided = append(append([]*Session{}, sessions[:open]...), sessions[open+1:]...)
		}
		whole := CheckSessions(decided, !incomplete)
		k := restream(sessions, 1+rng.Intn(8), rng, open, stop, nil)
		streamed := k.Finish(!incomplete)
		t.Logf("sessions=%d mutation=%d (applied %v) timed=%v timeouts=%v incomplete=%v: all at once %v; streamed %v",
			n, m, mutated, timed, hasTimeout, incomplete, whole, streamed)
		switch {
		case !mutated && (whole != nil || streamed != nil):
			t.Fatal("a legal history failed")
		case whole != nil && streamed == nil:
			t.Fatal("the streaming feed passed a history the all-at-once feed failed")
		case !incomplete && (whole == nil) != (streamed == nil):
			t.Fatal("the feeds disagree on a complete history")
		case !incomplete && !hasTimeout && mutated && m != mutDropApplied && whole == nil:
			t.Fatal("a mutated complete history without timeouts passed")
		}
	})
}

// TestSealAllocatesNothing: once a clerk's chunks come back, a seal
// allocates nothing — not the chunk, not the queue of sealed chunks, not
// the model map — so a streamed closed-loop session costs O(1) objects.
func TestSealAllocatesNothing(t *testing.T) {
	const clerks = 4
	k := NewChecker(clerks)
	sessions := make([]*Session, clerks)
	for c := range sessions {
		sessions[c] = k.session(c)
	}
	var ver, now, last int64
	// record adds streamChunk puts of one key to each session in turn, each
	// returning the value of the one before.
	record := func() {
		for range streamChunk {
			for _, s := range sessions {
				ver, now = ver+1, now+2
				s.add(OpRecord{Op: OpPut, Key: "k", Arg: ver, Out: last, Ver: ver, Start: now - 1, End: now})
				last = ver
			}
		}
	}
	for range 8 {
		record() // the chunks start to come back, and the queues grow to size
	}
	if got := testing.AllocsPerRun(20, record); got != 0 {
		t.Errorf("%d seals allocated %v objects, want 0", clerks, got)
	}
	for _, s := range sessions {
		s.close()
	}
	if err := k.Finish(true); err != nil {
		t.Fatal(err)
	}
	for _, s := range sessions {
		if s.Len() != 29*streamChunk || s.held() > streamChunk {
			t.Errorf("clerk %d: Len %d, holds %d, want %d records and at most a chunk held", s.Client, s.Len(), s.held(), 29*streamChunk)
		}
	}
}

// TestCheckerConcurrentSeals: clerks on goroutines of their own seal into
// one checker at once, as on the native backend, and a legal history
// passes. Each op takes its version and its value from one model under a
// lock, with its start before and its end after, so the history is legal
// however the goroutines run. Run it under -race.
func TestCheckerConcurrentSeals(t *testing.T) {
	const clerks, ops = 4, 20 * streamChunk / 8
	k := newChecker(clerks, streamChunk/8)
	for f := range k.feeds {
		k.feeds[f].stream = true
	}
	var mu sync.Mutex
	var ver, clock int64
	state := map[string]int64{}
	var wg sync.WaitGroup
	for c := range clerks {
		s := k.session(c)
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c)))
			for range ops {
				op := OpRecord{Key: clerkKeys[rng.Intn(len(clerkKeys))]}
				mu.Lock()
				clock++
				op.Start = clock
				switch rng.Intn(3) {
				case 0:
					ver++
					op.Op, op.Arg, op.Out, op.Ver = OpPut, ver, state[op.Key], ver
					state[op.Key] = ver
				case 1:
					ver++
					op.Op, op.Out, op.Ver = OpGet, state[op.Key], ver
				default:
					op.Op, op.Out, op.Ver, op.Lease = OpGet, state[op.Key], ver, true
				}
				clock++
				op.End = clock
				mu.Unlock()
				s.add(op)
			}
			s.close()
		}()
	}
	wg.Wait()
	if err := k.Finish(true); err != nil {
		t.Fatal(err)
	}
}

// TestStreamedSessionNeverSearchedTruncated: a streamed session hands a
// chunk over only at streamChunk records, more than kv.Task's search takes,
// so every history short enough for the search holds all its records; and
// a truncated one put to the search anyway is left alone, not searched
// with its first chunks missing.
func TestStreamedSessionNeverSearchedTruncated(t *testing.T) {
	if streamChunk <= searchMax {
		t.Fatalf("streamChunk %d ≤ searchMax %d: a searched history could be truncated", streamChunk, searchMax)
	}
	// A short streamed history holds every record, and the search reaches
	// it: these reads are not linearizable, though every stamp checks out
	// but the replay, which the search alone sees here.
	k := NewChecker(2)
	s0, s1 := k.session(0), k.session(1)
	s0.add(OpRecord{Op: OpPut, Key: "a", Arg: 1, Out: 0, Ver: 1})
	s1.add(OpRecord{Op: OpGet, Key: "a", Out: 1, Ver: 2})
	s1.add(OpRecord{Op: OpGet, Key: "a", Out: 0, Ver: 3})
	s0.close()
	s1.close()
	for _, s := range []*Session{s0, s1} {
		if s.held() != s.Len() {
			t.Fatalf("a streamed session of %d records holds %d", s.Len(), s.held())
		}
	}
	if err := CheckLinearizable([]*Session{s0, s1}, searchMax); err == nil {
		t.Error("the search passed a short streamed history that reads 1 then 0")
	}
	// A long one is truncated, and the search does not look at it.
	k = NewChecker(1)
	long := k.session(0)
	for v := int64(1); v <= 3*streamChunk; v++ {
		long.add(OpRecord{Op: OpGet, Key: "a", Ver: v})
	}
	long.close()
	if long.held() >= long.Len() {
		t.Fatalf("a streamed session of %d records holds them all", long.Len())
	}
	for i, op := range long.Ops {
		if first := long.Len() - long.held(); i != first || op.Ver != int64(first+1) || *long.At(i) != op {
			t.Fatalf("a streamed session's first record is %d (ver %d), want %d", i, op.Ver, first)
		}
		break
	}
	if err := CheckLinearizable([]*Session{long}, 1<<30); err != nil {
		t.Errorf("the search judged a truncated history: %v", err)
	}
	if err := CheckSessions([]*Session{long}, true); err != nil {
		t.Errorf("a legal streamed history failed: %v", err)
	}
	if err := CheckSessions([]*Session{long, NewSession(1)}, true); err == nil {
		t.Error("a streamed session and a whole one were checked as one history")
	}
}
