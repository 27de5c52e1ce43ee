package core

import (
	"strconv"

	"wfadvice/internal/paxos"
	"wfadvice/internal/sim"
)

// This file implements the direct agreement solver: k-set agreement from
// vector-Ωk advice (and consensus from Ω as the k = 1 case). It is the
// simplest complete instance of the paper's programme — C-processes are
// fully wait-free (they only publish inputs and poll decisions), while the
// S-processes do all the synchronization work, driving k parallel
// leader-based consensus instances with their failure-detector advice. Each
// instance decides at most one (proposed) value, so at most k distinct
// values are decided; the one stabilized vector position guarantees at least
// one instance decides in every fair run.

// DirectConfig configures the solver.
type DirectConfig struct {
	NC, NS int
	K      int
	// LeaderVec extracts a position→S-process vector of length K from a raw
	// failure-detector value. VectorLeader handles vector-Ωk; OmegaLeader
	// adapts Ω for K = 1.
	LeaderVec func(v sim.Value) []int
	// InKeys and DecKeys are precomputed key tables — the NC input registers
	// and the K decision registers — that the bodies bind their poll loops
	// to, and ConsKeys[j] is the paxos.InstanceKeys table of consensus
	// instance j that every S-process binds its proposer to. core.Scenario
	// emits them once per scenario so every instance and process shares one
	// table; nil tables are computed per body, so directly-constructed
	// configs keep working unchanged.
	InKeys, DecKeys []string
	ConsKeys        [][]string
}

// directInKeys returns the input-register key table (InKey(0..nc-1)).
func directInKeys(nc int) []string {
	keys := make([]string, nc)
	for i := range keys {
		keys[i] = InKey(i)
	}
	return keys
}

// directDecKeys returns the decision-register key table of the solver's k
// consensus instances.
func directDecKeys(k int) []string {
	keys := make([]string, k)
	for j := range keys {
		keys[j] = paxos.DecKey(consKey(j))
	}
	return keys
}

// directConsKeys returns the instance key tables of the solver's k consensus
// instances over ns proposers.
func directConsKeys(k, ns int) [][]string {
	tables := make([][]string, k)
	for j := range tables {
		tables[j] = paxos.InstanceKeys(consKey(j), ns)
	}
	return tables
}

func (c DirectConfig) inKeys() []string {
	if c.InKeys != nil {
		return c.InKeys
	}
	return directInKeys(c.NC)
}

func (c DirectConfig) decKeys() []string {
	if c.DecKeys != nil {
		return c.DecKeys
	}
	return directDecKeys(c.K)
}

func (c DirectConfig) consKeys() [][]string {
	if c.ConsKeys != nil {
		return c.ConsKeys
	}
	return directConsKeys(c.K, c.NS)
}

// VectorLeader interprets detector values as []int vectors (vector-Ωk).
func VectorLeader(v sim.Value) []int {
	if xs, ok := v.([]int); ok {
		return xs
	}
	return nil
}

// omegaVecs backs the 1-vectors OmegaLeader answers with: the vector of leader
// x is omegaVecs[x:x+1], shared by every caller and never written.
var omegaVecs = func() (t [64]int) {
	for x := range t {
		t[x] = x
	}
	return t
}()

// OmegaLeader interprets detector values as single leaders (Ω), yielding a
// 1-vector the caller must not modify.
func OmegaLeader(v sim.Value) []int {
	x, ok := v.(int)
	if !ok {
		return nil
	}
	if 0 <= x && x < len(omegaVecs) {
		return omegaVecs[x : x+1 : x+1]
	}
	return []int{x}
}

func consKey(j int) string { return "cons/" + strconv.Itoa(j) }

// DirectCBody returns the C-process body: publish the input, then poll the k
// decision registers — one batched collect per sweep over a handle bound
// once, with a reused collect buffer, so a sweep performs no allocation and
// no key resolution at all on the native backend. The body takes no
// synchronization steps — wait-freedom is structural. Between unsuccessful
// sweeps it waits the backend's way (sim.Ops.AwaitEpoch; inert on sim).
func (c DirectConfig) DirectCBody(i int) sim.Body {
	return func(e sim.Ops) {
		e.Bind(c.inKeys()[i:i+1]).Write(0, e.Input())
		dec := e.Bind(c.decKeys())
		buf := make([]sim.Value, dec.Len())
		for {
			seen := e.Epoch()
			for _, v := range dec.ReadMany(buf) {
				if d, ok := paxos.DecodeDecision(v); ok {
					e.Decide(d)
					return
				}
			}
			e.AwaitEpoch(seen)
		}
	}
}

// DirectSBody returns the S-process body: repeatedly query the detector and
// advance each consensus instance one operation, leading exactly the
// instances whose vector position currently names this process. A proposal
// is harvested from the input registers first, one batched collect of all
// NC input registers per detector query.
//
// A sweep in which this process leads no undecided instance performs only
// decision polls and is followed by the same wait as the C-process poll
// loop. This is where waiting matters most on small machines: a run keeps
// every S-process alive forever, and without it the non-leaders spin through
// whole scheduler quanta while the processes that still have work to do —
// the driving leader and the undecided C-pollers — wait their turn.
func (c DirectConfig) DirectSBody(me int) sim.Body {
	return func(e sim.Ops) {
		props := make([]*paxos.Proposer, c.K)
		for j, keys := range c.consKeys() {
			props[j] = paxos.NewBoundProposer(e.Bind(keys), me, c.NS, nil)
		}
		ins := e.Bind(c.inKeys())
		buf := make([]sim.Value, ins.Len())
		var proposal sim.Value
		for {
			seen := e.Epoch()
			lv := c.LeaderVec(e.QueryFD())
			if proposal == nil {
				for _, v := range ins.ReadMany(buf) {
					if v != nil {
						proposal = v
						break
					}
				}
				if proposal != nil {
					for _, p := range props {
						p.SetProposal(proposal)
					}
					continue
				}
				// No C-process has published an input yet: wait exactly like
				// an unsuccessful decision sweep. Spinning here starved the
				// rest of the system for whole preemption quanta.
				e.AwaitEpoch(seen)
				continue
			}
			drove := false
			for j := 0; j < c.K; j++ {
				if _, done := props[j].Decided(); done {
					continue
				}
				lead := j < len(lv) && lv[j] == me
				props[j].StepOp(lead)
				if lead {
					drove = true
				}
			}
			if !drove {
				e.AwaitEpoch(seen)
			}
		}
	}
}
