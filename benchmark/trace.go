package main

import (
	"encoding/json"
	"fmt"
	"math/bits"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"wfadvice"
)

// This file is the traced run's instrument: a decorator around wfadvice.Ops
// and wfadvice.Regs that every process body of a traced segment is handed in
// place of the backend's own handle. It counts every call exactly, times a
// 1-in-32 sample of them (a clock read costs about two register ops, so
// timing every call would measure the clock), attributes each call to a
// layer by the key prefix seen at Bind time, and — for a 1-in-64 sample of
// client ops — records the clerk's own calls as child spans of the op.
// Nothing here runs during the untraced segments the end-to-end metrics
// come from.

// layer is the package a register call is charged to.
type layer uint8

const (
	layerNative layer = iota // keys no protocol layer claims
	layerKV                  // kv/req, kv/rep: the clerk↔replica mailbox
	layerPaxos               // kv/log, cons: consensus instance registers
	layerCore                // in: the direct solver's input registers
	layerFdet                // advice queries
	layerPause               // the park hook between unsuccessful polls: waiting, not work
	numLayers
)

var layerNames = [numLayers]string{"native", "kv", "paxos", "core", "fdet", "pause"}

// call is the kind of a decorated call; with the layer it names the span.
type call uint8

const (
	callRead call = iota
	callWrite
	callCollect
	callBind
	callQuery
	callPark
	numCalls
)

var spanNames = func() (n [numLayers][numCalls]string) {
	for l, ln := range layerNames {
		for c, cn := range [numCalls]string{"read", "write", "collect", "bind", "query", "park"} {
			n[l][c] = ln + "." + cn
		}
	}
	return n
}()

func layerOf(key string) layer {
	switch {
	case strings.HasPrefix(key, "kv/req/"), strings.HasPrefix(key, "kv/rep/"):
		return layerKV
	case strings.HasPrefix(key, "kv/log/"), strings.HasPrefix(key, "cons/"):
		return layerPaxos
	case strings.HasPrefix(key, "in/"):
		return layerCore
	}
	return layerNative
}

// durBuckets is the size of the histogram of timed durations: bucket b holds
// the samples of bits.Len64(ns) == b, so bucket b starts at 2^(b-1) ns.
const durBuckets = 48

// durHist is a power-of-two histogram of timed call durations.
type durHist [durBuckets]struct{ n, ns int64 }

func (h *durHist) add(dur int64) {
	b := &h[min(bits.Len64(uint64(max(dur, 0))), durBuckets-1)]
	b.n++
	b.ns += dur
}

// below sums the samples under bucket cut.
func (h *durHist) below(cut int) (n, ns int64) {
	for b := 0; b < cut; b++ {
		n += h[b].n
		ns += h[b].ns
	}
	return n, ns
}

// descheduledCut separates work from waiting in the timed register calls of
// one segment. Seven spinning goroutines share two cores here, so a few
// timed calls lose their processor mid-call, and one such 10 ms sample scaled
// by timeEvery would outweigh every real call of the segment. The cut is
// read off the segment's own distribution, not guessed: the timed calls form
// one body of adjacent buckets from the mode up through binds, allocation
// stalls and short preemptions (16 ns to a few ms on kv-put, no empty bucket
// in between), and a call isolated above that body by empty buckets is not
// work of the kind the body shows. The cut is the first bucket of the widest
// run of empty buckets above the mode; a distribution without one is not
// cut. The traced run reports the cut and the share of timed time above it
// (trace.cut_us, trace.cut_share), so nothing vanishes unseen.
func descheduledCut(h *durHist) int {
	mode, top := 0, 0
	for b := range h {
		if h[b].n > h[mode].n {
			mode = b
		}
		if h[b].n > 0 {
			top = b
		}
	}
	cut, widest := durBuckets, 0
	for b := mode + 1; b < top; {
		e := b
		for h[e].n == 0 {
			e++
		}
		if e-b > widest {
			cut, widest = b, e-b
		}
		b = e + 1
	}
	return cut
}

const (
	timeEvery    = 32  // one call in this many is timed
	spanEvery    = 64  // one client op in this many has its calls recorded as spans
	spanOpsPerPr = 128 // sampled ops kept per process, bounding the trace file
)

// span is one timed call of a sampled op, in ns since the segment base.
type span struct {
	l     layer
	c     call
	op    int // the process's op sequence number the call belongs to
	start int64
	dur   int64
}

// procStats is one process's recorder. Only that process's goroutine writes
// it while the segment runs; the driver reads it after Run has returned.
type procStats struct {
	Proc string
	isC  bool

	calls [numLayers]int64   // every call
	timed [numLayers]durHist // the durations of the calls that were timed

	keysBound int64
	repReads  int64 // a clerk's reads of its reply register

	tick     uint32
	op       int  // client ops this process has started
	sampling bool // the current op's calls are recorded as spans
	sampled  int
	spans    []span
	began    int64 // clock when the body started
	decided  int64 // clock at Decide; with began, the one-shot root span
}

// tracer owns the recorders of one traced segment, one per process slot
// (C-processes first, then S-processes).
type tracer struct {
	base  time.Time
	nc    int
	procs []*procStats
}

func newTracer(nc, ns int) *tracer {
	t := &tracer{nc: nc, procs: make([]*procStats, nc+ns)}
	for i := range t.procs {
		t.procs[i] = &procStats{}
	}
	return t
}

func (t *tracer) clock() int64 { return time.Since(t.base).Nanoseconds() }

// wrapC and wrapS return the body factory running each process against a
// decorated handle that records into the process's slot.
func (t *tracer) wrapC(mk func(int) wfadvice.Body) func(int) wfadvice.Body {
	return func(i int) wfadvice.Body { return t.wrap(t.procs[i], mk(i)) }
}

func (t *tracer) wrapS(mk func(int) wfadvice.Body) func(int) wfadvice.Body {
	return func(i int) wfadvice.Body { return t.wrap(t.procs[t.nc+i], mk(i)) }
}

func (t *tracer) wrap(st *procStats, body wfadvice.Body) wfadvice.Body {
	if body == nil {
		return nil
	}
	return func(e wfadvice.Ops) {
		st.Proc, st.isC = e.Proc().String(), e.Proc().IsC()
		st.began = t.clock()
		body(&tracedOps{Ops: e, t: t, st: st})
	}
}

// beginInstance marks one-shot instance r as the current op of every
// process, so a sampled instance's calls all become spans of it.
func (t *tracer) beginInstance(r int) {
	for _, st := range t.procs {
		st.op = r
		st.sampling = r%spanEvery == 0 && st.sampled < spanOpsPerPr
		if st.sampling {
			st.sampled++
		}
	}
}

// pause is the park hook handed to the kv bodies: the yield KVStress uses,
// counted and timed like a call.
func (t *tracer) pause(e wfadvice.Ops, _ uint64) {
	st := e.(*tracedOps).st
	t0 := st.begin(t, layerPause)
	runtime.Gosched()
	st.end(t, layerPause, callPark, t0)
}

// begin counts a call and reports the clock if this call is to be timed, or
// -1.
func (st *procStats) begin(t *tracer, l layer) int64 {
	st.calls[l]++
	st.tick++
	if st.sampling || st.tick%timeEvery == 0 {
		return t.clock()
	}
	return -1
}

func (st *procStats) end(t *tracer, l layer, c call, t0 int64) {
	if t0 < 0 {
		return
	}
	dur := t.clock() - t0
	st.timed[l].add(dur)
	if st.sampling {
		st.spans = append(st.spans, span{l: l, c: c, op: st.op, start: t0, dur: dur})
	}
}

// startOp marks a clerk publishing its next request.
func (st *procStats) startOp() {
	st.op++
	st.sampling = st.op%spanEvery == 1 && st.sampled < spanOpsPerPr
	if st.sampling {
		st.sampled++
	}
}

// tracedOps decorates a backend handle.
type tracedOps struct {
	wfadvice.Ops
	t  *tracer
	st *procStats
}

func (o *tracedOps) Read(key string) wfadvice.Value {
	l := layerOf(key)
	t0 := o.st.begin(o.t, l)
	v := o.Ops.Read(key)
	o.st.end(o.t, l, callRead, t0)
	return v
}

func (o *tracedOps) ReadMany(keys []string) []wfadvice.Value {
	l := layerNative
	if len(keys) > 0 {
		l = layerOf(keys[0])
	}
	t0 := o.st.begin(o.t, l)
	v := o.Ops.ReadMany(keys)
	o.st.end(o.t, l, callCollect, t0)
	return v
}

func (o *tracedOps) Write(key string, v wfadvice.Value) {
	l := layerOf(key)
	t0 := o.st.begin(o.t, l)
	o.Ops.Write(key, v)
	o.st.end(o.t, l, callWrite, t0)
}

func (o *tracedOps) QueryFD() wfadvice.Value {
	t0 := o.st.begin(o.t, layerFdet)
	v := o.Ops.QueryFD()
	o.st.end(o.t, layerFdet, callQuery, t0)
	return v
}

func (o *tracedOps) AwaitEpoch(seen uint64) {
	t0 := o.st.begin(o.t, layerPause)
	o.Ops.AwaitEpoch(seen)
	o.st.end(o.t, layerPause, callPark, t0)
}

func (o *tracedOps) Decide(v wfadvice.Value) {
	o.st.decided = o.t.clock()
	o.Ops.Decide(v)
}

func (o *tracedOps) Bind(keys []string) wfadvice.Regs {
	l := layerNative
	if len(keys) > 0 {
		l = layerOf(keys[0])
	}
	o.st.keysBound += int64(len(keys))
	t0 := o.st.begin(o.t, l)
	r := o.Ops.Bind(keys)
	o.st.end(o.t, l, callBind, t0)
	tr := &tracedRegs{Regs: r, t: o.t, st: o.st, l: l}
	if o.st.isC && len(keys) > 0 {
		tr.req = strings.HasPrefix(keys[0], "kv/req/")
		tr.rep = strings.HasPrefix(keys[0], "kv/rep/")
	}
	return tr
}

// tracedRegs decorates a bound key table; its layer was fixed at Bind.
type tracedRegs struct {
	wfadvice.Regs
	t        *tracer
	st       *procStats
	l        layer
	req, rep bool // a clerk's own request / reply register
}

func (r *tracedRegs) Read(i int) wfadvice.Value {
	if r.rep {
		r.st.repReads++
	}
	t0 := r.st.begin(r.t, r.l)
	v := r.Regs.Read(i)
	r.st.end(r.t, r.l, callRead, t0)
	return v
}

func (r *tracedRegs) ReadInt(i int) (int, bool) {
	t0 := r.st.begin(r.t, r.l)
	x, ok := r.Regs.ReadInt(i)
	r.st.end(r.t, r.l, callRead, t0)
	return x, ok
}

func (r *tracedRegs) Write(i int, v wfadvice.Value) {
	if r.req {
		r.st.startOp()
	}
	t0 := r.st.begin(r.t, r.l)
	r.Regs.Write(i, v)
	r.st.end(r.t, r.l, callWrite, t0)
}

func (r *tracedRegs) WriteInt(i int, x int) {
	t0 := r.st.begin(r.t, r.l)
	r.Regs.WriteInt(i, x)
	r.st.end(r.t, r.l, callWrite, t0)
}

func (r *tracedRegs) ReadMany(dst []wfadvice.Value) []wfadvice.Value {
	t0 := r.st.begin(r.t, r.l)
	v := r.Regs.ReadMany(dst)
	r.st.end(r.t, r.l, callCollect, t0)
	return v
}

// layerTotals sums the recorders: exact calls and the busy time estimated
// from the timed sample (sampled ns × calls ÷ timed calls), per layer.
type layerTotals struct {
	calls     [numLayers]int64
	busy      [numLayers]float64
	keysBound int64
	repReads  int64
	cut       int     // descheduledCut over the segment's timed register calls
	cutShare  float64 // share of their timed ns at or above the cut
}

// cutFor is the bucket layer l's timed samples are cut at: waiting in the
// park hook is the thing measured, so it is never cut.
func cutFor(l layer, cut int) int {
	if l == layerPause {
		return durBuckets
	}
	return cut
}

// busyEst scales a recorder's timed sample of one layer, up to the cut, to
// all its calls.
func (st *procStats) busyEst(l layer, cut int) float64 {
	n, ns := st.timed[l].below(cutFor(l, cut))
	return ratio(float64(ns)*float64(st.calls[l]), float64(n))
}

func (t *tracer) totals() layerTotals {
	var tot layerTotals
	var regs durHist
	for _, st := range t.procs {
		for l := layer(0); l < layerPause; l++ {
			for b := range regs {
				regs[b].n += st.timed[l][b].n
				regs[b].ns += st.timed[l][b].ns
			}
		}
	}
	tot.cut = descheduledCut(&regs)
	_, kept := regs.below(tot.cut)
	_, all := regs.below(durBuckets)
	tot.cutShare = ratio(float64(all-kept), float64(all))
	for _, st := range t.procs {
		for l := layer(0); l < numLayers; l++ {
			tot.calls[l] += st.calls[l]
			tot.busy[l] += st.busyEst(l, tot.cut)
		}
		tot.keysBound += st.keysBound
		tot.repReads += st.repReads
	}
	return tot
}

// cutNs is the lower edge of bucket cut in ns, and 0 when nothing was cut.
func cutNs(cut int) float64 {
	if cut >= durBuckets {
		return 0
	}
	return float64(int64(1) << (cut - 1))
}

// rootSpan is one sampled client op or decision: the parent of the spans its
// process recorded under the same op number.
type rootSpan struct {
	proc            int // index into tracer.procs
	op              int
	name            string
	start, end, due int64
	kind            string
}

// traceEvent is one Chrome trace-event ("X" = complete event; ts and dur in
// microseconds).
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	ID   string         `json:"id,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// write renders the segment as out/trace-<workload>.json: the sampled ops
// with their child spans, then each process's per-layer totals.
func (t *tracer) write(workload string, roots []rootSpan, tot layerTotals) (string, error) {
	type layerRow struct {
		Calls  int64   `json:"calls"`
		Timed  int64   `json:"timed"`
		BusyNs float64 `json:"busy_ns"`
	}
	type procRow struct {
		Proc   string              `json:"proc"`
		Layers map[string]layerRow `json:"layers"`
	}
	doc := struct {
		TraceEvents []traceEvent `json:"traceEvents"`
		Processes   []procRow    `json:"processes"`
		// Timed register calls at or above cut_ns lost the processor mid-call
		// (descheduledCut) and are in no layer's busy time; cut_share is
		// their share of all timed ns. cut_ns 0 = nothing cut.
		CutNs    float64 `json:"cut_ns"`
		CutShare float64 `json:"cut_share"`
	}{TraceEvents: []traceEvent{}, CutNs: cutNs(tot.cut), CutShare: tot.cutShare}

	for _, r := range roots {
		st := t.procs[r.proc]
		id := fmt.Sprintf("%s/%d", st.Proc, r.op)
		var child int64
		for _, s := range st.spans {
			if s.op != r.op || s.start < r.start || s.start > r.end {
				continue
			}
			child += s.dur
			doc.TraceEvents = append(doc.TraceEvents, traceEvent{
				Name: spanNames[s.l][s.c], Cat: layerNames[s.l], Ph: "X",
				Ts: float64(s.start) / 1e3, Dur: float64(s.dur) / 1e3,
				Pid: 1, Tid: r.proc, ID: id,
				Args: map[string]any{"parent": id},
			})
		}
		doc.TraceEvents = append(doc.TraceEvents, traceEvent{
			Name: r.name, Cat: "client", Ph: "X",
			Ts: float64(r.start) / 1e3, Dur: float64(r.end-r.start) / 1e3,
			Pid: 1, Tid: r.proc, ID: id,
			Args: map[string]any{
				"client": st.Proc, "seq": r.op, "kind": r.kind,
				"due_us": float64(r.due) / 1e3, "start_us": float64(r.start) / 1e3, "end_us": float64(r.end) / 1e3,
				"self_us": float64(r.end-r.start-child) / 1e3,
			},
		})
	}
	for _, st := range t.procs {
		row := procRow{Proc: st.Proc, Layers: map[string]layerRow{}}
		for l := layer(0); l < numLayers; l++ {
			if st.calls[l] == 0 {
				continue
			}
			n, _ := st.timed[l].below(cutFor(l, tot.cut))
			row.Layers[layerNames[l]] = layerRow{Calls: st.calls[l], Timed: n, BusyNs: st.busyEst(l, tot.cut)}
		}
		doc.Processes = append(doc.Processes, row)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(outDir, "trace-"+workload+".json")
	data, err := json.Marshal(doc)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
