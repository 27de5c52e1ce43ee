package kv

import (
	"slices"

	"wfadvice/internal/obs"
	"wfadvice/internal/paxos"
	"wfadvice/internal/sim"
)

// This file is the replica, the S-process body that turns Ω advice into
// leadership of the kv log. Each iteration applies what the log decided,
// harvests the request registers in one collect, answers what it can
// (recorded replies, lease reads) and batches the rest into one proposal at
// the apply frontier (Body). Every value it writes — a reply, a batch and
// the batch's list of requests — is a pointer into a slab the replica owns,
// so no register write allocates; the requests themselves are the clerks',
// named by the pointers the harvest read. serve restores a reply a stale
// replica wrote over. reclaim announces each log window before the replica
// touches it and gives back the windows every replica has passed, and those
// a replica more than LagWindows behind has yet to reach once a snapshot of
// the state covers them; such a laggard installs the snapshot instead of
// sweeping (install). Their comments carry the arguments.

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
	// reclaimRegs holds every replica's frontier register (FrontierKey) at
	// its index and its snapshot register (SnapshotKey) NS further on.
	// published is the last frontier this replica wrote, seen what its last
	// collect of the frontiers read and low their least; snaps holds the
	// snapshots it has written and snapPuts their maps, and puts is scratch
	// for those.
	reclaimRegs sim.Regs
	published   int
	seen        []int
	low         int
	snaps       sim.Slab[Snapshot]
	snapPuts    sim.Slab[Request]
	puts        []Request

	reqBuf     []sim.Value
	next       int     // apply frontier: first undecided slot
	repWritten []Reply // last reply this replica wrote per clerk
	unread     []int   // iterations since, with the request it answers still pending
	// replies holds the replies this replica has written: a reply register
	// holds a pointer into it.
	replies sim.Slab[Reply]

	inflight bool       // a proposed batch is riding the log
	slot     int        // its slot
	flight   []*Request // its requests (for pending-suppression)
	batchSeq int64
	wasLead  bool // advised leader on the previous iteration

	// batch is per-iteration scratch, reused across iterations.
	batch []*Request
	// batches holds the batches this replica has proposed, and batchReqs
	// their lists of requests, the pointers the harvest read from the
	// request registers: a decided slot holds a pointer into the first.
	batches   sim.Slab[Batch]
	batchReqs sim.Slab[*Request]
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
	keys := newReplicaKeys(cfg.NC, cfg.NS)
	return func(e sim.Ops) { newReplica(cfg, me, e, keys).run() }
}

// replicaKeys is the key tables a replica binds: the request and the reply
// registers, and every replica's frontier register followed by every
// replica's snapshot register (see reclaim). Body builds them once, so a
// re-armed native runtime hands a replica last run's handles back.
type replicaKeys struct{ reqs, reps, reclaim []string }

func newReplicaKeys(nc, ns int) replicaKeys {
	return replicaKeys{ReqKeys(nc), RepKeys(nc), slices.Concat(FrontierKeys(ns), SnapshotKeys(ns))}
}

// newReplica binds replica me's registers on e; cfg has its defaults filled
// in (see Body).
func newReplica(cfg ReplicaConfig, me int, e sim.Ops, keys replicaKeys) *replica {
	return &replica{
		cfg:         cfg,
		me:          me,
		e:           e,
		h:           Telemetry.Handle(),
		reqs:        e.Bind(keys.reqs),
		reps:        e.Bind(keys.reps),
		log:         paxos.NewLog(e, LogPrefix, me, cfg.NS, cfg.Window),
		st:          NewState(cfg.NC),
		reclaimRegs: e.Bind(keys.reclaim),
		seen:        make([]int, cfg.NS),
		reqBuf:      make([]sim.Value, cfg.NC),
		repWritten:  make([]Reply, cfg.NC),
		unread:      make([]int, cfg.NC),
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
// A sweep stops at its window's end, and the next window is announced
// (reclaim) before it is swept.
func (r *replica) apply(lead bool) bool {
	moved := false
	for {
		from := r.next
		r.next = r.log.Sweep(from, func(slot int, v paxos.Value) bool {
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
		if r.next == from {
			return moved
		}
		moved = true
		if r.next%r.log.Window() != 0 {
			return true
		}
		r.reclaim()
	}
}

// LagWindows is how many log windows a replica may fall behind another
// before the other gives back the windows in between and the laggard has to
// install a snapshot instead of sweeping them. The largest gap between the
// slowest and the fastest frontier a collect read in a fault-free run of
// efd-kv -n 3 -clients 4 -rate 0 -duration 2s, in windows of 64 slots, was
// 1–6 with -put-frac 0.05 (six runs) and 13–46 with -put-frac 1 (fourteen
// runs, half of them at most 19), on 2 vCPUs; 5-s runs of -put-frac 1 reached
// 22–104. There a follower the Go scheduler starves falls behind the leader,
// and past LagWindows it installs a snapshot: about one 2-s -put-frac 1 run
// in three writes a few dozen snapshots and installs one. A larger value
// holds more windows behind a crashed replica: at 64, the kv-open-crash
// benchmark allocates 241 bytes an op, against 227 at 32.
const LagWindows = 32

// reclaim announces the window the apply frontier has entered and gives the
// log's passed windows back to the backend. The replica publishes that
// window's base in its frontier register and collects all NS of them. It
// then has the log release every window wholly below the least, and — if it
// wrote a snapshot first — every window more than LagWindows below its own
// but the ones the collect read: those are announced. A replica that finds
// a frontier more than LagWindows ahead of its own installs the freshest
// snapshot of those replicas, if that is ahead of it, and announces again.
//
// Safety: a replica touches only slots in the window its frontier is in
// (the sweep stops at the window's end, a proposal and the lease check sit
// at the frontier), and it touches a window only after it has announced it
// and its collect has shown no frontier more than LagWindows ahead, or the
// far ones' snapshots none ahead of it. Every frontier walks up from 0
// through every multiple of the window length, so all replicas cut the log
// into the same windows and name the same keys for each; slot keys never
// recur. Frontiers only grow, so a window wholly below the least is one
// nobody will touch again. Past the least it is a Dekker handshake. A
// releaser writes its snapshot, then its frontier f, then collects; a
// laggard writes its frontier b, then collects. Say the releaser gives back
// window b: b is more than LagWindows below f and its collect did not read
// b. If it read a later frontier, the laggard had left b for good. Otherwise
// its read came before the laggard's write, so the laggard's collect, which
// comes after that write, reads f or later — more than LagWindows ahead —
// and then reads a snapshot taken at f or later, and installs instead of
// touching b. A replica that has not started reads 0 and a crashed one
// stays at what it last wrote: it pins that one window, and the ones not
// yet LagWindows below the others.
//
// A snapshot is written only when the collect before this one read a
// frontier more than LagWindows below this window, so a run whose replicas
// stay closer than that writes none and takes the steps it took before
// replicas could install (TestReplicaStepShapeAcrossWindows).
func (r *replica) reclaim() {
	w := r.log.Window()
	for {
		base := r.next - r.next%w
		if base == r.published {
			return
		}
		snapped := base-r.low > LagWindows*w
		if snapped {
			r.reclaimRegs.Write(r.cfg.NS+r.me, r.snapshot())
			r.h.Inc(cSnapshotWrite)
		}
		r.published = base
		r.reclaimRegs.WriteInt(r.me, base)
		low, high := base, base
		for i := range r.seen {
			f, _ := r.reclaimRegs.ReadInt(i) // a register nobody has written reads 0
			r.seen[i] = f
			low, high = min(low, f), max(high, f)
		}
		r.low = low
		if high-base > LagWindows*w && r.install(base+LagWindows*w) {
			continue
		}
		below := low
		if snapped {
			below = max(low, base-LagWindows*w)
		}
		r.log.Truncate(below, r.seen...)
		return
	}
}

// install reads the snapshot registers of the replicas whose frontier the
// last collect read above far and installs the freshest, if it is ahead of
// this replica's apply frontier. A proposal still riding the log is
// abandoned: its slot is behind the new frontier, and its requests are
// still pending for whoever leads.
func (r *replica) install(far int) bool {
	var best *Snapshot
	for i, f := range r.seen {
		if f <= far {
			continue
		}
		if sn, _ := r.reclaimRegs.Read(r.cfg.NS + i).(*Snapshot); sn != nil && sn.Next > r.next && (best == nil || sn.Next > best.Next) {
			best = sn
		}
	}
	if best == nil {
		return false
	}
	r.st.install(best)
	r.next = best.Next
	if r.inflight {
		r.log.Release(r.slot)
		r.inflight = false
		r.flight = nil
	}
	r.h.Inc(cSnapshotInstall)
	return true
}

// snapshot returns the state at the apply frontier, cut from the replica's
// snapshot slabs and the slab its replies come from.
func (r *replica) snapshot() *Snapshot {
	r.puts = r.st.puts(r.puts[:0])
	return r.snaps.One(Snapshot{
		Next: r.next,
		Ver:  r.st.Ver(),
		Puts: r.snapPuts.Many(r.puts),
		Last: r.replies.Many(r.st.last),
	})
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
		req, ok := r.reqBuf[c].(*Request)
		if !ok {
			continue
		}
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
