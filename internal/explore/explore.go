// Package explore is a stateless bounded model checker over the sim
// lockstep runtime: it systematically enumerates schedules of an EFD system
// up to a depth bound and evaluates a violation predicate at every reached
// state, turning the repo's randomized violation finders into exhaustive
// bounded proofs.
//
// The search is stateless in the Verisoft sense: the runtime cannot be
// forked mid-run, so every node of the schedule tree is reached by replaying
// its schedule prefix from the initial state on a fresh runtime. Three
// reductions keep the tree tractable:
//
//   - sleep sets: after a subtree that begins with process p is explored,
//     sibling subtrees need not re-explore p first when p's pending
//     operation commutes with theirs (Godefroid-style partial order
//     reduction over the View's pending operations);
//   - state hashing: a (shared memory, per-process observation history)
//     fingerprint prunes prefixes that provably lead to an already-covered
//     state with at least as much remaining depth;
//   - iterative deepening (ModeFirst): horizons grow one step at a time, so
//     the first violation found is at minimal schedule depth.
//
// The frontier fans out on the worker pool of internal/par, which also runs
// the experiment engine's cells: the sub-tree roots are generated in DFS
// order at a fixed split depth independent of worker count, each item is
// explored with item-local state, and item results merge back in generation
// order — so a Report is byte-identical for any Options.Workers.
package explore

import (
	"fmt"
	"hash/fnv"
	"io"

	"wfadvice/internal/ids"
	"wfadvice/internal/par"
	"wfadvice/internal/sim"
)

// Spec describes the system under exploration. New must build a fresh,
// fully deterministic runtime on every call: two runtimes driven by the same
// schedule must produce identical traces.
type Spec struct {
	// Name identifies the spec in reports and traces.
	Name string
	// Meta is carried verbatim into recorded traces (task parameters needed
	// to rebuild the spec for replay).
	Meta map[string]string
	// New builds a fresh runtime whose Config.MaxSteps is at least maxSteps.
	New func(maxSteps int) (*sim.Runtime, error)
	// Check inspects a (possibly partial) run for a violation; nil means the
	// state is unobjectionable. Violating nodes are recorded and not
	// extended.
	Check func(res *sim.Result) error
	// TimeSensitive declares that process behaviour depends on absolute step
	// numbers (a non-nil failure-detector history or a crashing pattern).
	// Commuting two operations then changes downstream behaviour, so both
	// sleep sets and state hashing are disabled and the search degrades to
	// plain bounded enumeration.
	TimeSensitive bool
}

// Mode selects the search strategy.
type Mode int

// Search modes.
const (
	// ModeExhaust sweeps the full tree once at MaxDepth, collecting every
	// violation — the "bounded proof" mode.
	ModeExhaust Mode = iota
	// ModeFirst runs iterative-deepening sweeps with horizons 1..MaxDepth
	// and stops at the first horizon that exposes a violation, yielding a
	// minimal-depth witness.
	ModeFirst
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeExhaust:
		return "exhaust"
	case ModeFirst:
		return "first"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Options configures a search.
type Options struct {
	// MaxDepth is the schedule-length horizon.
	MaxDepth int
	// Workers sizes the sub-tree worker pool; 0 or negative means
	// GOMAXPROCS. Reports are byte-identical for every value.
	Workers int
	// SplitDepth is the prefix length at which the tree is cut into
	// independent work items. It is deliberately independent of Workers so
	// that the search structure (and hence the report) does not vary with
	// parallelism; 0 means min(4, MaxDepth).
	SplitDepth int
	// MaxRuns bounds the number of replayed runs per sweep; 0 means 1<<20.
	// A sweep cut short by the budget reports Exhausted=false.
	MaxRuns int
	// Mode selects ModeExhaust (default) or ModeFirst.
	Mode Mode
	// NoPrune disables sleep sets and state hashing, forcing raw
	// enumeration of every schedule at the horizon.
	NoPrune bool
}

func (o Options) splitDepth() int {
	s := o.SplitDepth
	if s <= 0 {
		s = 4
	}
	if s > o.MaxDepth {
		s = o.MaxDepth
	}
	return s
}

func (o Options) maxRuns() int {
	if o.MaxRuns > 0 {
		return o.MaxRuns
	}
	return 1 << 20
}

// maxWitnesses caps the witnesses stored in a report; counting continues
// past the cap.
const maxWitnesses = 32

// Violation is one recorded violating run.
type Violation struct {
	// Depth is the schedule length at which the predicate fired.
	Depth int `json:"depth"`
	// Schedule is the violating schedule prefix.
	Schedule []ids.Proc `json:"-"`
	// Err is the predicate's description of the violation.
	Err string `json:"err"`
	// Steps is the recorded trace of the violating run.
	Steps []TraceStep `json:"-"`
}

// Stats are the counters of one sweep.
type Stats struct {
	// Runs is the number of replayed runs (one per explored node).
	Runs int `json:"runs"`
	// Terminals counts nodes where the system halted by itself.
	Terminals int `json:"terminals"`
	// DedupHits counts prefixes pruned by the visited-state hash.
	DedupHits int `json:"dedup_hits"`
	// SleepPrunes counts child branches skipped by sleep sets.
	SleepPrunes int `json:"sleep_prunes"`
	// Violations counts nodes where Check fired (≥ len(Witness)).
	Violations int `json:"violations"`
}

func (s *Stats) add(t Stats) {
	s.Runs += t.Runs
	s.Terminals += t.Terminals
	s.DedupHits += t.DedupHits
	s.SleepPrunes += t.SleepPrunes
	s.Violations += t.Violations
}

// Report is the deterministic outcome of a search. It contains no timings
// and no worker counts: for a fixed spec and options, Render output is
// byte-identical at any parallelism.
type Report struct {
	Spec     string `json:"spec"`
	Mode     string `json:"mode"`
	MaxDepth int    `json:"max_depth"`
	// FoundDepth is the ModeFirst horizon that exposed the first violation
	// (-1 when none, or in ModeExhaust).
	FoundDepth int `json:"found_depth"`
	// Sweeps is the number of deepening sweeps executed.
	Sweeps int `json:"sweeps"`
	// Exhausted reports that the final sweep covered its whole (reduced)
	// tree within the run budget — the bounded-proof bit.
	Exhausted bool `json:"exhausted"`
	// Stats are the final sweep's counters.
	Stats
	// TotalRuns accumulates runs across all deepening sweeps.
	TotalRuns int `json:"total_runs"`
	// Witness holds up to maxWitnesses recorded violations in DFS order.
	Witness []Violation `json:"witness"`
}

// Render formats the report as stable text.
func (r *Report) Render() string {
	out := fmt.Sprintf("explore: spec=%s mode=%s depth=%d sweeps=%d\n", r.Spec, r.Mode, r.MaxDepth, r.Sweeps)
	out += fmt.Sprintf("  runs=%d total-runs=%d terminals=%d dedup=%d sleep-pruned=%d\n",
		r.Runs, r.TotalRuns, r.Terminals, r.DedupHits, r.SleepPrunes)
	out += fmt.Sprintf("  violations=%d exhausted=%v found-depth=%d\n", r.Violations, r.Exhausted, r.FoundDepth)
	for i, w := range r.Witness {
		out += fmt.Sprintf("  witness[%d]: depth=%d %s\n", i, w.Depth, w.Err)
		out += "    schedule:"
		for _, p := range w.Schedule {
			out += " " + p.String()
		}
		out += "\n"
	}
	return out
}

// Explore runs the search described by spec and opt.
func Explore(spec Spec, opt Options) (*Report, error) {
	if spec.New == nil || spec.Check == nil {
		return nil, fmt.Errorf("explore: spec needs New and Check")
	}
	if opt.MaxDepth <= 0 {
		return nil, fmt.Errorf("explore: MaxDepth must be positive")
	}
	s := &searcher{spec: spec, opt: opt}
	rep := &Report{Spec: spec.Name, Mode: opt.Mode.String(), MaxDepth: opt.MaxDepth, FoundDepth: -1}
	from, to := opt.MaxDepth, opt.MaxDepth
	if opt.Mode == ModeFirst {
		from = 1
	}
	for d := from; d <= to; d++ {
		sw, err := s.sweep(d)
		if err != nil {
			return nil, err
		}
		rep.Sweeps++
		rep.TotalRuns += sw.stats.Runs
		rep.Stats = sw.stats
		rep.Exhausted = !sw.cut
		rep.Witness = sw.witness
		if len(rep.Witness) > maxWitnesses {
			rep.Witness = rep.Witness[:maxWitnesses]
		}
		if opt.Mode == ModeFirst && sw.stats.Violations > 0 {
			rep.FoundDepth = d
			break
		}
	}
	return rep, nil
}

// searcher holds the immutable parts of a search.
type searcher struct {
	spec Spec
	opt  Options
}

func (s *searcher) prune() bool { return !s.opt.NoPrune && !s.spec.TimeSensitive }

// workItem is one independent sub-tree handed to the pool.
type workItem struct {
	prefix []ids.Proc
	sleep  map[ids.Proc]bool
}

// walkState is the mutable per-walk state (root expansion or one item).
type walkState struct {
	budget     int
	splitDepth int            // root expansion only: prefix length at which to emit items
	visited    map[uint64]int // state hash -> max remaining depth explored
	stats      Stats
	witness    []Violation
	cut        bool
	probeErr   error
	// mx is the walk's live-telemetry surface, minted at construction.
	// It mirrors stats into the process-wide counters and never feeds
	// back into the walk — Report does not depend on it.
	mx walkMetrics
}

func newWalkState(budget int) *walkState {
	return &walkState{budget: budget, visited: make(map[uint64]int), mx: newWalkMetrics()}
}

type sweepOut struct {
	stats   Stats
	witness []Violation
	cut     bool
}

// sweep explores the tree once at the given horizon.
func (s *searcher) sweep(depth int) (*sweepOut, error) {
	split := s.opt.splitDepth()
	if split > depth {
		split = depth
	}
	// Phase 1: serial expansion of the tree up to the split depth; nodes at
	// exactly the split depth become work items instead of being explored.
	var items []workItem
	root := newWalkState(s.opt.maxRuns())
	root.splitDepth = split
	root.mx.sweepStart(depth)
	s.walk(nil, nil, depth, root, func(it workItem) { items = append(items, it) })
	if root.probeErr != nil {
		return nil, root.probeErr
	}
	out := &sweepOut{stats: root.stats, witness: root.witness, cut: root.cut}
	if len(items) == 0 {
		root.mx.sweepDone()
		return out, nil
	}
	root.mx.itemsPlanned(len(items))
	// Phase 2: explore the items on the pool. Per-item budgets are derived
	// from the item count (not the worker count), and results merge back in
	// item-generation order, so the sweep is deterministic at any
	// parallelism.
	perItem := (s.opt.maxRuns() - root.stats.Runs) / len(items)
	if perItem < 1 {
		perItem = 1
	}
	outs := make([]*walkState, len(items))
	par.Each(len(items), s.opt.Workers, func(i int) {
		st := newWalkState(perItem)
		s.walk(items[i].prefix, items[i].sleep, depth, st, nil)
		st.mx.itemDone()
		outs[i] = st
	})
	for _, st := range outs {
		if st.probeErr != nil {
			return nil, st.probeErr
		}
		out.stats.add(st.stats)
		out.witness = append(out.witness, st.witness...)
		out.cut = out.cut || st.cut
	}
	root.mx.sweepDone()
	return out, nil
}

// walk explores the sub-tree rooted at prefix down to the depth horizon.
// With emit set, nodes at exactly splitDepth are handed out as work items
// (unprobed — the item's walk owns them) instead of being explored.
func (s *searcher) walk(prefix []ids.Proc, sleep map[ids.Proc]bool, depth int, st *walkState, emit func(workItem)) {
	if st.probeErr != nil || st.cut {
		return
	}
	if emit != nil && len(prefix) == st.splitDepth && st.splitDepth < depth {
		emit(workItem{prefix: cloneProcs(prefix), sleep: cloneSet(sleep)})
		return
	}
	if st.stats.Runs >= st.budget {
		st.cut = true
		return
	}
	nd, err := s.probe(prefix)
	st.stats.Runs++
	st.mx.node(len(prefix))
	if err != nil {
		st.probeErr = err
		return
	}
	if verr := s.spec.Check(nd.res); verr != nil {
		st.stats.Violations++
		st.mx.inc(cXViolation)
		if len(st.witness) < maxWitnesses {
			st.witness = append(st.witness, Violation{
				Depth:    len(prefix),
				Schedule: cloneProcs(prefix),
				Err:      verr.Error(),
				Steps:    traceSteps(nd.res.Trace),
			})
		}
		return // do not extend a violating run
	}
	if !nd.reached || len(nd.ready) == 0 {
		st.stats.Terminals++
		st.mx.inc(cXTerminal)
		return
	}
	if len(prefix) >= depth {
		return
	}
	if s.prune() {
		key := stateHash(nd.res, sleep)
		remaining := depth - len(prefix)
		if seen, ok := st.visited[key]; ok && seen >= remaining {
			st.stats.DedupHits++
			st.mx.inc(cXDedupHit)
			return
		}
		st.visited[key] = remaining
	}
	cur := cloneSet(sleep)
	for _, p := range nd.ready {
		if cur[p] {
			st.stats.SleepPrunes++
			st.mx.inc(cXSleepPrune)
			continue
		}
		var childSleep map[ids.Proc]bool
		if s.prune() {
			for q := range cur {
				if independent(nd.pending[p], nd.pending[q]) {
					if childSleep == nil {
						childSleep = make(map[ids.Proc]bool, len(cur))
					}
					childSleep[q] = true
				}
			}
		}
		child := append(prefix[:len(prefix):len(prefix)], p)
		s.walk(child, childSleep, depth, st, emit)
		if s.prune() {
			cur[p] = true
		}
	}
}

// node is the explorer's view of one reached state.
type node struct {
	res     *sim.Result
	reached bool // the whole prefix was granted and the system is still live
	ready   []ids.Proc
	pending map[ids.Proc]sim.PendingOp
}

// probe replays a schedule prefix from the initial state on a fresh runtime
// and captures the frontier: the ready processes and their pending
// operations at the end of the prefix.
func (s *searcher) probe(prefix []ids.Proc) (*node, error) {
	rt, err := s.spec.New(s.opt.MaxDepth + 2)
	if err != nil {
		return nil, fmt.Errorf("explore: building runtime: %w", err)
	}
	ps := &probeSched{seq: prefix}
	res := rt.Run(ps)
	if ps.diverged {
		return nil, fmt.Errorf("explore: prefix replay diverged at step %d of %v (spec not deterministic?)", ps.pos, prefix)
	}
	return &node{res: res, reached: ps.reached, ready: ps.ready, pending: ps.pending}, nil
}

// probeSched grants exactly the prefix, then snapshots the frontier view and
// stops the run.
type probeSched struct {
	seq      []ids.Proc
	pos      int
	diverged bool
	reached  bool
	ready    []ids.Proc
	pending  map[ids.Proc]sim.PendingOp
}

func (s *probeSched) Next(v *sim.View) (ids.Proc, bool) {
	if s.pos < len(s.seq) {
		p := s.seq[s.pos]
		if !v.IsReady(p) {
			s.diverged = true
			return ids.Proc{}, false
		}
		s.pos++
		return p, true
	}
	s.reached = true
	s.ready = append([]ids.Proc(nil), v.Ready...)
	s.pending = make(map[ids.Proc]sim.PendingOp, len(v.Ready))
	for _, p := range v.Ready {
		s.pending[p] = v.Pending[p]
	}
	return ids.Proc{}, false
}

// independent reports whether two pending operations of distinct processes
// commute in a time-insensitive system: executing them in either order
// yields the same pair of results and the same shared state.
func independent(a, b sim.PendingOp) bool {
	// Decisions touch only the decider; detector queries answer nil in the
	// time-insensitive systems this relation is consulted for.
	if a.Kind == sim.OpDecide || b.Kind == sim.OpDecide {
		return true
	}
	if a.Kind == sim.OpQueryFD || b.Kind == sim.OpQueryFD {
		return true
	}
	if a.Kind == sim.OpRead && b.Kind == sim.OpRead {
		return true
	}
	return a.Key != b.Key // write/write or read/write conflict on a key
}

// stateHash fingerprints a reached state: the shared memory (sorted keys)
// plus each process's full observation history (its operations and their
// results, which determine its local continuation), plus the sleep set the
// state was reached with (a state revisited with a smaller sleep set has
// more children and must be re-explored). Absolute step numbers are
// deliberately excluded — the hash is only consulted for time-insensitive
// specs.
func stateHash(res *sim.Result, sleep map[ids.Proc]bool) uint64 {
	h := fnv.New64a()
	for _, k := range sim.SortedStoreKeys(res.FinalStore) {
		fmt.Fprintf(h, "%s=%#v;", k, res.FinalStore[k])
	}
	io.WriteString(h, "|")
	perProc := make(map[ids.Proc][]sim.Event)
	var procs []ids.Proc
	for _, e := range res.Trace {
		if _, ok := perProc[e.Proc]; !ok {
			procs = append(procs, e.Proc)
		}
		perProc[e.Proc] = append(perProc[e.Proc], e)
	}
	sim.SortProcs(procs)
	for _, p := range procs {
		fmt.Fprintf(h, "%v:", p)
		for _, e := range perProc[p] {
			fmt.Fprintf(h, "%d,%s,%#v;", int(e.Kind), e.Key, e.Val)
		}
	}
	io.WriteString(h, "|")
	var asleep []ids.Proc
	for p := range sleep {
		asleep = append(asleep, p)
	}
	sim.SortProcs(asleep)
	for _, p := range asleep {
		fmt.Fprintf(h, "!%v", p)
	}
	return h.Sum64()
}

func cloneProcs(ps []ids.Proc) []ids.Proc {
	return append([]ids.Proc(nil), ps...)
}

func cloneSet(m map[ids.Proc]bool) map[ids.Proc]bool {
	out := make(map[ids.Proc]bool, len(m))
	for k, v := range m {
		if v {
			out[k] = true
		}
	}
	return out
}
