package kv

import (
	"math/rand"

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
	PutFrac float64 // fraction of Puts: 0 issues only Gets, 1 only Puts
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

	// Checker, when set, checks the sessions as they are recorded: a clerk
	// seals each full chunk into it and records on into a chunk it has
	// judged, so a session holds O(1) chunks however long it runs (see
	// Session). One checker serves one run's clerks, so a config whose
	// bodies run more than once leaves it nil.
	Checker *Checker
}

// clerkKeys is the keyspace every clerk draws its operations' keys from.
var clerkKeys = [...]string{"k0", "k1", "k2", "k3", "k4", "k5", "k6", "k7"}

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
)

// Body returns clerk i's program.
func (cfg ClerkConfig) Body(i int) sim.Body {
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
		// The session's first chunk holds what the clerk knows it will
		// record: the script, or every due time of the open-loop schedule.
		// A streamed session's chunks have the checker's length.
		var sess *Session
		if cfg.Checker != nil {
			sess = cfg.Checker.session(i)
		} else {
			known := cfg.Ops
			if known == 0 && cfg.Clock != nil && cfg.Interval > 0 {
				known = int((cfg.Deadline + cfg.Interval - 1) / cfg.Interval)
			}
			sess = newSession(i, known)
		}
		var reqs sim.Slab[Request] // the request register holds a pointer into it
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
			key := clerkKeys[rng.Intn(len(clerkKeys))]
			op, arg := OpGet, int64(0)
			if rng.Float64() < cfg.PutFrac {
				op, arg = OpPut, rng.Int63n(1_000_000)+1
			}
			seq := k + 1
			var start int64
			if cfg.Clock != nil {
				start = cfg.Clock()
			}
			req.Write(0, reqs.One(Request{Client: i, Seq: seq, Op: op, Key: key, Val: arg}))
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
				if v, ok := rep.Read(0).(*Reply); ok && v.Seq == seq {
					r = *v
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
			sess.add(rec)
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
		sess.close()
		e.Decide(sess)
	}
}
