package kv

import (
	"wfadvice/internal/obs"
	"wfadvice/internal/paxos"
	"wfadvice/internal/sim"
)

// ReplicaConfig parameterizes one replica (an S-process body).
type ReplicaConfig struct {
	NC int // clerks
	NS int // replicas
	// LeaseReads serves pure Gets from the leader's applied state under a
	// one-read frontier check instead of a log round.
	LeaseReads bool
	// MaxBatch caps requests per proposed batch (default NC).
	MaxBatch int
	// Pause is called when an iteration makes no progress (nil = the
	// backend's own wait).
	Pause Pause
	// Window is the number of log slots whose registers a replica binds, and
	// gives back, at a time (0 = the log's default, 64). Every replica of a
	// system gets the same one.
	Window int
}

// replica is the per-body state of the server loop.
type replica struct {
	cfg  ReplicaConfig
	me   int
	e    sim.Ops
	h    obs.Handle
	reqs sim.Regs
	reps sim.Regs
	log  *paxos.Log
	st   *State
	// fronts holds every replica's published frontier (FrontierKeys);
	// published is the last value this replica wrote to its own.
	fronts    sim.Regs
	published int

	reqBuf     []sim.Value
	next       int     // apply frontier: first undecided slot
	repWritten []Reply // last reply this replica wrote per clerk
	unread     []int   // iterations since, with the request it answers still pending
	// replies holds the replies this replica has written: a reply register
	// holds a pointer into it.
	replies sim.Slab[Reply]

	inflight bool      // a proposed batch is riding the log
	slot     int       // its slot
	flight   []Request // its requests (for pending-suppression)
	batchSeq int64
	wasLead  bool // advised leader on the previous iteration

	// batch is per-iteration scratch, reused across iterations.
	batch []Request
	// batches holds the batches this replica has proposed, and batchReqs
	// their requests: a decided slot holds a pointer into the first.
	batches   sim.Slab[Batch]
	batchReqs sim.Slab[Request]
}

// Body returns replica me's program. The loop is: query advice, apply
// everything decided (Sweep), harvest the request registers in one batched
// collect, serve what it can (recorded replies, lease reads), batch the
// rest into one proposal, drive the in-flight proposal a burst of steps,
// and park when none of that made progress.
func (cfg ReplicaConfig) Body(me int) sim.Body {
	if cfg.MaxBatch < 1 {
		cfg.MaxBatch = cfg.NC
	}
	if cfg.Pause == nil {
		cfg.Pause = awaitEpoch
	}
	return func(e sim.Ops) { newReplica(cfg, me, e).run() }
}

// newReplica binds replica me's registers on e; cfg has its defaults filled
// in (see Body).
func newReplica(cfg ReplicaConfig, me int, e sim.Ops) *replica {
	return &replica{
		cfg:        cfg,
		me:         me,
		e:          e,
		h:          Telemetry.Handle(),
		reqs:       e.Bind(ReqKeys(cfg.NC)),
		reps:       e.Bind(RepKeys(cfg.NC)),
		log:        paxos.NewLog(e, LogPrefix, me, cfg.NS, cfg.Window),
		st:         NewState(cfg.NC),
		fronts:     e.Bind(FrontierKeys(cfg.NS)),
		reqBuf:     make([]sim.Value, cfg.NC),
		repWritten: make([]Reply, cfg.NC),
		unread:     make([]int, cfg.NC),
	}
}

func (r *replica) run() {
	for {
		r.iterate()
	}
}

// iterate is one round of the server loop.
func (r *replica) iterate() {
	seen := r.e.Epoch()
	leader, _ := r.e.QueryFD().(int)
	lead := leader == r.me
	r.noteLead(lead)

	progress := r.apply(lead)
	if r.serve(lead) {
		progress = true
	}
	if r.inflight {
		n := 1 // non-leaders only poll the slot's decision register
		if lead {
			// Enough steps for both phases of an uncontested instance, so
			// a committed batch costs one iteration, not 2n+3.
			n = 2*(r.cfg.NS+2) + 2
		}
		for i := 0; i < n; i++ {
			v, ok := r.log.Proposer(r.slot).StepOp(lead)
			if !ok {
				continue
			}
			r.settle(v)
			progress = true
			break
		}
	}
	if !progress && !(lead && r.inflight) {
		r.cfg.Pause(r.e, seen)
	}
}

// noteLead tracks the leadership edge. When the advice flaps away from a
// replica with a proposal still riding the log, the batch is abandoned
// rather than kept driving a slot the new leader is also proposing at. The
// proposal already handed to the paxos instance may still decide — apply()
// picks it up like any other entry and (client,seq) dedup makes a
// re-proposal by the next leader harmless — and if this replica is
// re-advised it re-forms the batch from the still-pending request
// registers under a fresh batch seq, so settle() routes a late decision of
// the old batch to the preempt path. No request is lost or doubled.
func (r *replica) noteLead(lead bool) {
	if r.wasLead && !lead && r.inflight {
		r.h.Inc(cAdviceFlap)
		r.inflight = false
		r.flight = nil
	}
	r.wasLead = lead
}

// apply sweeps newly decided log entries into the state machine and, when
// leading, delivers the resulting replies. A swept slot is released, so if
// it is the in-flight one — a competitor decided it before this replica's
// proposer noticed — the proposal is settled here, from the swept value:
// past this point the slot's proposer is gone and must not be asked again.
func (r *replica) apply(lead bool) bool {
	moved := false
	r.next = r.log.Sweep(r.next, func(slot int, v paxos.Value) bool {
		moved = true
		if r.inflight && slot == r.slot {
			r.settle(v)
		}
		if b, ok := v.(*Batch); ok {
			r.h.Inc(cApply)
			for _, req := range b.Reqs {
				rep, fresh := r.st.ApplyReq(req)
				if !fresh {
					r.h.Inc(cDedupHit)
					continue
				}
				if lead {
					r.deliver(req.Client, rep)
				}
			}
		}
		r.log.Release(slot)
		return true
	})
	if moved {
		r.reclaim()
	}
	return moved
}

// reclaim gives the log's decided windows back to the backend. When the
// apply frontier has entered a new window, the replica publishes that
// window's base in its frontier register, collects all NS of them, and has
// the log release every window wholly below the minimum.
//
// Safety: a replica touches only slots at or past the base of the window its
// frontier is in (the sweep collects that whole window, a proposal and the
// lease check sit at the frontier), the frontier only grows, and the base is
// published after the frontier got there — so a replica never touches a slot
// below its published value, let alone below the minimum of all of them.
// Every frontier walks up from 0 through every multiple of the window
// length, so all replicas cut the log into the same windows and "wholly
// below the minimum" names the same keys for each; slot keys never recur. A
// replica that has not started reads 0 and a crashed one stays at what it
// last wrote, so nothing at or above either is ever released: a crashed
// replica pins the log from its frontier on, exactly as if nothing were
// reclaimed.
func (r *replica) reclaim() {
	w := r.log.Window()
	base := r.next - r.next%w
	if base == r.published {
		return
	}
	r.published = base
	r.fronts.WriteInt(r.me, base)
	low := base
	for i := 0; i < r.cfg.NS; i++ {
		f, _ := r.fronts.ReadInt(i) // a register nobody has written reads 0
		low = min(low, f)
	}
	r.log.Truncate(low)
}

// deliver writes a reply register unless this replica already wrote that
// exact reply.
func (r *replica) deliver(c int, rep Reply) {
	if r.repWritten[c] == rep {
		return
	}
	r.reps.Write(c, r.replies.One(rep))
	r.repWritten[c] = rep
	r.unread[c] = 0
}

// redeliverAfter is how many consecutive iterations the leader watches a
// request it has answered stay pending before it reads the reply register
// back. Far more than a scheduled clerk needs to consume a reply, so the
// read-back is off the path of a healthy op; few enough that a lost reply
// is restored long before the clerk's deadline.
const redeliverAfter = 64

// serve handles the pending request registers: recorded replies for
// already-applied requests (the retransmit path after a leadership
// change), lease reads for pure Gets, and a batch proposal for the rest.
// Only the advised leader serves; followers just keep applying.
func (r *replica) serve(lead bool) bool {
	if !lead {
		return false
	}
	r.reqs.ReadMany(r.reqBuf)
	// The lease frontier check: one read of the apply-frontier decision
	// register. If it is still undecided, no operation anywhere has
	// committed beyond what this replica has applied (decisions are
	// gap-free: a decided slot implies all earlier slots decided), so the
	// local state is the latest committed state and a Get served from it
	// linearizes at this read. Checked lazily, once per iteration.
	frontierOK, frontierChecked := false, false
	clean := func() bool {
		if !frontierChecked {
			_, decided := r.log.Decided(r.next)
			frontierOK = !decided
			frontierChecked = true
		}
		return frontierOK
	}
	progress := false
	r.batch = r.batch[:0]
	for c := 0; c < r.cfg.NC; c++ {
		p, ok := r.reqBuf[c].(*Request)
		if !ok {
			continue
		}
		req := *p
		switch {
		case r.repWritten[c].Seq == req.Seq:
			// Answered by this replica, from the log or under a lease, and
			// not consumed yet. Usually the clerk just has not run. But a
			// reply register has several writers over time: a replica that
			// was advised a moment ago may land a late write of an older
			// reply on top of this one, and nobody else would put it back —
			// this replica believes it delivered, the others are followers.
			// So every redeliverAfter iterations the register is read back
			// and, if it has lost the reply, written again.
			if r.unread[c]++; r.unread[c] >= redeliverAfter {
				r.unread[c] = 0
				if got, _ := r.reps.Read(c).(*Reply); got == nil || *got != r.repWritten[c] {
					r.h.Inc(cRetransmit)
					r.reps.Write(c, r.replies.One(r.repWritten[c]))
					progress = true
				}
			}
		case req.Seq <= r.st.Applied(c):
			// Applied (by us or a predecessor's batch): deliver the
			// recorded reply. A rewrite after a leadership change is the
			// retransmit that unsticks a clerk whose reply was lost.
			if rep := r.st.LastReply(c); r.repWritten[c] != rep {
				r.h.Inc(cRetransmit)
				r.deliver(c, rep)
				progress = true
			}
		case r.inflight && r.inBatch(c, req.Seq):
			// Riding the in-flight proposal.
		case r.cfg.LeaseReads && req.Op == OpGet && clean():
			rep := Reply{Seq: req.Seq, Val: r.st.Get(req.Key), Ver: r.st.Ver(), Lease: true}
			r.deliver(c, rep)
			r.h.Inc(cLeaseRead)
			progress = true
		default:
			if req.Op == OpGet && r.cfg.LeaseReads {
				r.h.Inc(cRedirect) // frontier moved under the lease check
			}
			if len(r.batch) < r.cfg.MaxBatch {
				r.batch = append(r.batch, req)
			}
		}
	}
	if !r.inflight && len(r.batch) > 0 {
		r.batchSeq++
		b := r.batches.One(Batch{Proposer: r.me, Seq: r.batchSeq, Reqs: r.batchReqs.Many(r.batch)})
		r.slot = r.next
		r.flight = b.Reqs
		r.log.Proposer(r.slot).SetProposal(b)
		r.inflight = true
		r.h.Inc(cProposal)
		progress = true
	}
	return progress
}

// inBatch reports whether (c, seq) is in the in-flight batch. The batch is
// at most NC requests, so the scan is bounded.
func (r *replica) inBatch(c, seq int) bool {
	for _, req := range r.flight {
		if req.Client == c && req.Seq == seq {
			return true
		}
	}
	return false
}

// settle resolves a decided in-flight slot: ours committed, or a
// competitor's batch took the slot (ours re-forms from the request
// registers at the new frontier on the next iteration — requests are never
// lost, they stay pending until applied).
func (r *replica) settle(v paxos.Value) {
	if b, ok := v.(*Batch); ok && b.Proposer == r.me && b.Seq == r.batchSeq {
		r.h.Inc(cBatchCommit)
		r.h.Add(cBatchReqs, int64(len(r.flight)))
	} else {
		r.h.Inc(cBatchPreempt)
	}
	r.inflight = false
	r.flight = nil
}
