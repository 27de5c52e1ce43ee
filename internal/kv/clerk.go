package kv

import (
	"fmt"
	"math/rand"
	"slices"

	"wfadvice/internal/sim"
)

// ClerkConfig parameterizes one clerk session (a C-process body). A clerk
// issues a sequence of Get/Put requests through its request register, waits
// for each reply, records the completed operations, and decides its
// *Session — the decision value the kv task's linearizability check
// validates.
//
// Two issue disciplines share the body. Script mode (Ops > 0, Clock nil) is
// the sim/conformance workload: a fixed-length deterministic sequence
// seeded from the process input. Open-loop mode (Clock non-nil) is the
// native stress workload in the style of "Are Lock-Free Concurrent
// Algorithms Practically Wait-Free?": operation k is due at k·Interval on a
// global schedule regardless of completions, and the reported latency is
// completion minus due time, so queueing delay counts against the service
// instead of silently throttling the offered load.
type ClerkConfig struct {
	NC      int
	NS      int
	Ops     int     // script length; 0 in open-loop mode
	Keys    int     // keyspace size (default 8)
	PutFrac float64 // fraction of Puts (default 0.5)
	Seed    int64   // base script seed; per-clerk seed adds the input
	Pause   Pause

	// Open-loop fields, set only by the native driver. Clock is ns since
	// the run base (monotonic); Sleep blocks for the given ns. Both nil on
	// sim, keeping sim bodies free of wall time.
	Clock    func() int64
	Sleep    func(ns int64)
	Deadline int64 // stop issuing once Clock() or the next due time passes this
	Interval int64 // ns between due times; 0 = closed loop (issue on completion)
	// OpTimeout bounds the reply wait of a single operation, in ns; 0 waits
	// forever. On expiry the clerk records the op as TimedOut and moves on —
	// a crashed or advice-starved service degrades to visible timeouts
	// instead of a hung session. Expiry has to be observed twice, with one
	// wait and one more poll of the reply register in between (see the
	// reply wait in Body). Needs Clock; ignored on sim, where there is no
	// wall time to run out.
	OpTimeout int64

	// OnOp reports each completed operation and its due time (due==start
	// outside open-loop mode) to the driver for per-run histograms.
	OnOp func(rec OpRecord, due int64)
}

const (
	// clerkFreePolls is how many no-progress reply polls a clerk burns
	// (parking via Pause between them) before counting a retry and backing
	// off: enough for the common leader turnaround, few enough that a
	// starved clerk stops spinning quickly.
	clerkFreePolls = 64
	// clerkBackoffMin/Max bound the capped exponential retry backoff, in
	// ns (~1µs to ~1ms). The cap keeps the deadline check responsive.
	clerkBackoffMin = int64(1) << 10
	clerkBackoffMax = int64(1) << 20
	// clerkRateWindow is the fraction of the issue window (one part in
	// this many) a closed-loop clerk lets pass before it trusts its own rate:
	// the first milliseconds run under unstabilized advice and say little
	// about the rest.
	clerkRateWindow = 16
)

// pace is a point on a session's progress: done operations completed by
// time at.
type pace struct {
	done int
	at   int64
}

// records is how many operations a session at pace cur should expect to
// record in all, from what the clerk already knows: the script length, the
// open-loop schedule, or — closed loop — its own rate since prev, the last
// time it asked, carried to the deadline with a quarter of what is still to
// come to spare. Falling short costs a second copy of everything and
// overshooting only the excess; a run's first moments go at another rate than
// the rest, in either direction, and a later estimate has less left to be
// wrong about. The record slice is given that capacity when it fills, so a
// session allocates its records once or twice over instead of append's five
// times. Zero leaves the growth to append: nothing is known, or it is too
// early in the window to tell and doubling is still cheap.
func (cfg ClerkConfig) records(prev, cur pace) int {
	switch {
	case cfg.Ops > 0:
		return cfg.Ops
	case cfg.Clock == nil:
		return 0
	case cfg.Interval > 0:
		return int((cfg.Deadline + cfg.Interval - 1) / cfg.Interval)
	case cur.at < cfg.Deadline/clerkRateWindow || cur.at <= prev.at:
		return 0
	}
	rate := float64(cur.done-prev.done) / float64(cur.at-prev.at)
	left := rate * float64(cfg.Deadline-cur.at)
	return cur.done + int(left+left/4)
}

// Body returns clerk i's program.
func (cfg ClerkConfig) Body(i int) sim.Body {
	if cfg.Keys < 1 {
		cfg.Keys = 8
	}
	if cfg.PutFrac == 0 {
		cfg.PutFrac = 0.5
	}
	if cfg.Pause == nil {
		cfg.Pause = awaitEpoch
	}
	return func(e sim.Ops) {
		h := Telemetry.Handle()
		req := e.Bind([]string{ReqKey(i)})
		rep := e.Bind([]string{RepKey(i)})
		seed := cfg.Seed
		if in, ok := e.Input().(int); ok {
			seed += int64(in)
		}
		rng := rand.New(rand.NewSource(seed))
		keys := make([]string, cfg.Keys)
		for k := range keys {
			keys[k] = fmt.Sprintf("k%d", k)
		}
		sess := &Session{Client: i}
		var sized pace // when sess.Ops was last given a capacity
		for k := 0; ; k++ {
			if cfg.Ops > 0 && k >= cfg.Ops {
				break
			}
			var due int64
			if cfg.Clock != nil {
				now := cfg.Clock()
				if now >= cfg.Deadline {
					break
				}
				due = now
				if cfg.Interval > 0 {
					due = int64(k) * cfg.Interval
					if due >= cfg.Deadline {
						break
					}
					if wait := due - now; wait > 0 && cfg.Sleep != nil {
						cfg.Sleep(wait)
					}
				}
			}
			key := keys[rng.Intn(cfg.Keys)]
			op, arg := OpGet, int64(0)
			if rng.Float64() < cfg.PutFrac {
				op, arg = OpPut, rng.Int63n(1_000_000)+1
			}
			seq := k + 1
			var start int64
			if cfg.Clock != nil {
				start = cfg.Clock()
			}
			req.Write(0, Request{Client: i, Seq: seq, Op: op, Key: key, Val: arg})
			// The reply wait degrades in stages instead of spinning
			// forever on a dead or advice-starved service: a bounded free
			// budget of parked polls, then counted retries under capped
			// exponential backoff, and — when OpTimeout is set — a hard
			// per-op deadline after which the op is recorded TimedOut and
			// the session moves on. A late reply for a timed-out seq is
			// ignored (the seq check below) and the request itself may
			// still apply; the checker owns that ambiguity.
			//
			// The deadline is a wall-clock comparison taken whenever the
			// clerk happens to run, so one reading past it says nothing
			// about the service: if the whole process was stalled for
			// longer than OpTimeout, every clerk reads its deadline as
			// passed before any replica got a step. The first such reading
			// therefore only arms the expiry: the clerk waits once more —
			// the longest backoff sleep where the driver supplies Sleep,
			// since under yield-spin a Pause is a single Gosched, which
			// does not promise that a replica runs before the clerk does
			// again — polls, and records TimedOut only if the deadline
			// still reads passed with no reply.
			var r Reply
			timedOut, expired := false, false
			polls, backoff := 0, clerkBackoffMin
			for {
				seen := e.Epoch()
				if v, ok := rep.Read(0).(Reply); ok && v.Seq == seq {
					r = v
					break
				}
				if cfg.Clock != nil && cfg.OpTimeout > 0 && cfg.Clock()-start >= cfg.OpTimeout {
					if expired {
						timedOut = true
						break
					}
					expired = true
					if cfg.Sleep != nil {
						cfg.Sleep(clerkBackoffMax)
					} else {
						cfg.Pause(e, seen)
					}
					continue
				}
				if polls++; polls < clerkFreePolls {
					cfg.Pause(e, seen)
					continue
				}
				polls = 0
				h.Inc(cRetry)
				if cfg.Sleep != nil {
					wait := backoff
					if cfg.Clock != nil && cfg.OpTimeout > 0 {
						if left := cfg.OpTimeout - (cfg.Clock() - start); left < wait {
							wait = left
						}
					}
					if wait > 0 {
						cfg.Sleep(wait)
					}
					if backoff < clerkBackoffMax {
						backoff *= 2
					}
				} else {
					cfg.Pause(e, seen)
				}
			}
			var end int64
			if cfg.Clock != nil {
				end = cfg.Clock()
			}
			rec := OpRecord{
				Op: op, Key: key, Arg: arg,
				Start: start, End: end, TimedOut: timedOut,
			}
			if !timedOut {
				rec.Out, rec.Ver, rec.Lease = r.Val, r.Ver, r.Lease
			}
			if n := len(sess.Ops); n == cap(sess.Ops) {
				cur := pace{done: n, at: end}
				if want := cfg.records(sized, cur); want > n {
					sess.Ops = slices.Grow(sess.Ops, want-n)
					sized = cur
				}
			}
			sess.Ops = append(sess.Ops, rec)
			if timedOut {
				h.Inc(cDeadlineExpired)
				continue
			}
			if op == OpPut {
				h.Inc(cOpPut)
			} else {
				h.Inc(cOpGet)
			}
			if cfg.Clock != nil {
				lat := end - due
				if op == OpPut {
					latPut.Observe(lat)
				} else {
					latGet.Observe(lat)
					if r.Lease {
						latLease.Observe(lat)
					}
				}
			}
			if cfg.OnOp != nil {
				cfg.OnOp(rec, due)
			}
		}
		h.Inc(cSession)
		e.Decide(sess)
	}
}
