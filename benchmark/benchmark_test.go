package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"testing"
	"time"

	"wfadvice"
)

// Tests run the real code paths on short segments, so the root module's
// `go test ./...` covers the benchmark in a few seconds.

const testSegment = 200 * time.Millisecond

func TestMain(m *testing.M) {
	logw = io.Discard
	dir, err := os.MkdirTemp("", "benchmark-test")
	if err != nil {
		panic(err)
	}
	outDir = dir // trace files of the traced segments
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// countingOps is a backend fake that counts what reaches it.
type countingOps struct {
	wfadvice.Ops
	calls int
}

func (c *countingOps) Proc() wfadvice.Proc                { return wfadvice.C(0) }
func (c *countingOps) Read(string) wfadvice.Value         { c.calls++; return nil }
func (c *countingOps) ReadMany([]string) []wfadvice.Value { c.calls++; return nil }
func (c *countingOps) Write(string, wfadvice.Value)       { c.calls++ }
func (c *countingOps) QueryFD() wfadvice.Value            { c.calls++; return 0 }
func (c *countingOps) AwaitEpoch(uint64)                  { c.calls++ }
func (c *countingOps) Bind(keys []string) wfadvice.Regs {
	c.calls++
	return &countingRegs{c: c, keys: keys}
}

type countingRegs struct {
	c    *countingOps
	keys []string
}

func (r *countingRegs) Len() int                                     { return len(r.keys) }
func (r *countingRegs) Key(i int) string                             { return r.keys[i] }
func (r *countingRegs) Read(int) wfadvice.Value                      { r.c.calls++; return nil }
func (r *countingRegs) ReadInt(int) (int, bool)                      { r.c.calls++; return 0, false }
func (r *countingRegs) Write(int, wfadvice.Value)                    { r.c.calls++ }
func (r *countingRegs) WriteInt(int, int)                            { r.c.calls++ }
func (r *countingRegs) ReadMany(d []wfadvice.Value) []wfadvice.Value { r.c.calls++; return d }

// Every call through the decorator reaches the backend once and lands in
// exactly one layer, the one its key prefix names.
func TestDecoratorCountsEveryCallInOneLayer(t *testing.T) {
	tr := newTracer(1, 0)
	tr.base = time.Now()
	fake := &countingOps{}
	var body wfadvice.Body = func(e wfadvice.Ops) {
		e.Write("in/0", 1)
		e.Read("kv/req/0")
		e.ReadMany([]string{"cons/0/dec"})
		e.QueryFD()
		e.AwaitEpoch(0)
		e.Read("elsewhere")
		log := e.Bind([]string{"kv/log/7/blk/0", "kv/log/7/dec"})
		log.Read(0)
		log.WriteInt(1, 3)
		log.ReadMany(nil)
		req := e.Bind([]string{"kv/req/0"})
		for i := 0; i < 100; i++ {
			req.Write(0, i)
		}
		rep := e.Bind([]string{"kv/rep/0"})
		rep.Read(0)
		rep.ReadInt(0)
	}
	tr.wrap(tr.procs[0], body)(fake)

	st := tr.procs[0]
	want := [numLayers]int64{layerCore: 1, layerKV: 1 + 1 + 100 + 1 + 2, layerPaxos: 1 + 1 + 3, layerFdet: 1, layerPause: 1, layerNative: 1}
	if st.calls != want {
		t.Errorf("calls per layer = %v, want %v", st.calls, want)
	}
	var sum int64
	for _, n := range st.calls {
		sum += n
	}
	if sum != int64(fake.calls) {
		t.Errorf("layers sum to %d calls, the backend saw %d", sum, fake.calls)
	}
	if st.op != 100 || st.repReads != 1 || st.keysBound != 4 {
		t.Errorf("ops started %d, reply reads %d, keys bound %d; want 100, 1, 4", st.op, st.repReads, st.keysBound)
	}
	// Ops 1 and 65 are sampled: all of their calls are spans.
	ops := map[int]int{}
	for _, s := range st.spans {
		ops[s.op]++
	}
	if len(ops) != 2 || ops[1] != 1 || ops[65] != 1 {
		t.Errorf("spans per sampled op = %v, want one each for ops 1 and 65", ops)
	}
}

// The wrapped and the bare run of the kv system get the same verdict, and
// the traced segment leaves a trace whose children name recorded parents.
func TestDecoratorTransparentOnKV(t *testing.T) {
	w := workloadByName("kv-put")
	rep, err := w.run(5, testSegment)
	if err != nil {
		t.Fatal(err)
	}
	seg, err := w.traced(5, testSegment)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed() || seg.err != nil {
		t.Fatalf("verdicts differ or fail: bare failed=%v %v, traced err=%v", rep.Failed(), rep.Errors, seg.err)
	}
	if seg.ops == 0 || seg.totals.calls[layerKV] < 2*seg.ops || seg.totals.calls[layerPaxos] == 0 {
		t.Errorf("traced %d ops with %d mailbox and %d paxos calls", seg.ops, seg.totals.calls[layerKV], seg.totals.calls[layerPaxos])
	}
	data, err := os.ReadFile(seg.tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string
			ID   string
			Dur  float64
			Args map[string]any
		}
		Processes []struct{ Proc string }
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	roots, children := map[string]float64{}, map[string]float64{}
	for _, ev := range doc.TraceEvents {
		if ev.Name == "clerk.op" {
			roots[ev.ID] = ev.Dur
		} else {
			children[ev.Args["parent"].(string)] += ev.Dur
		}
	}
	if len(roots) == 0 || len(doc.Processes) != clerks+replicas {
		t.Fatalf("%d root spans, %d process rows", len(roots), len(doc.Processes))
	}
	for parent, dur := range children {
		if root, ok := roots[parent]; !ok || dur > root+1e-6 {
			t.Errorf("children of %s take %.3f µs, root %.3f µs (recorded: %v)", parent, dur, root, ok)
		}
	}
}

// The cut between work and descheduled calls comes from the samples: it is
// the widest run of empty buckets above the mode, and there is none without
// an empty bucket.
func TestDescheduledCutFollowsTheDistribution(t *testing.T) {
	var h durHist
	var n, ns int64
	for b, count := 4, 1000; b <= 16; b, count = b+1, max(count/3, 1) { // 12 ns reads up to a 50 µs window slide
		for i := 0; i < count; i++ {
			h.add(int64(3) << (b - 2))
			n, ns = n+1, ns+int64(3)<<(b-2)
		}
	}
	if cut := descheduledCut(&h); cut != durBuckets || cutNs(cut) != 0 {
		t.Errorf("cut at bucket %d with nothing descheduled, want none", cut)
	}
	h.add(2_000_000) // lost the processor for 2 ms, for 9 ms, for 11 ms
	h.add(9_000_000)
	h.add(11_000_000)
	cut := descheduledCut(&h)
	if gotN, gotNs := h.below(cut); gotN != n || gotNs != ns {
		t.Errorf("cut at bucket %d keeps %d samples, %d ns; want the %d of the body, %d ns", cut, gotN, gotNs, n, ns)
	}
	if edge := cutNs(cut); edge <= 50_000 || edge > 2_000_000 {
		t.Errorf("cut edge %.0f ns is not between the body and the descheduled samples", edge)
	}
}

func TestInstanceRegCallsRepeatExactly(t *testing.T) {
	first, err := instanceRegCalls()
	if err != nil {
		t.Fatal(err)
	}
	if first == 0 {
		t.Fatal("an instance made no register calls")
	}
	for i := 0; i < 2; i++ {
		if n, err := instanceRegCalls(); err != nil || n != first {
			t.Errorf("run %d: %d calls (%v), first run %d", i+2, n, err, first)
		}
	}
}

func fakeSegment(done, attempted int64, ok bool, elapsed, p50, cpu time.Duration, alloc, mallocs uint64) *segment {
	rep := &wfadvice.StressReport{Elapsed: elapsed}
	rep.Latency.P50 = p50
	return &segment{rep: rep, done: done, attempted: attempted, ok: ok, cpu: cpu, alloc: alloc, mallocs: mallocs}
}

// Allocation figures are pooled over segments and wall-clock figures are
// medians; a segment the checker rejects fails every op it attempted, and
// timeouts fail on their own.
func TestPooledMedianAndOkFracArithmetic(t *testing.T) {
	segs := []*segment{
		fakeSegment(1000, 1000, true, time.Second, 10*time.Microsecond, 2*time.Millisecond, 5000, 100),
		fakeSegment(3000, 3010, true, time.Second, 30*time.Microsecond, 3*time.Millisecond, 9000, 500),
		fakeSegment(2000, 2000, false, time.Second, 20*time.Microsecond, 8*time.Millisecond, 8500, 300),
	}
	ta := &tally{correct: true}
	for _, s := range segs {
		ta.add(s)
	}
	if ta.correct || ta.attempted != 6010 || ta.failed != 2010 {
		t.Errorf("tally = %+v, want incorrect, 6010 attempted, 2010 failed", *ta)
	}
	v := endToEndValues(1200*time.Millisecond, segs, ta)
	for name, x := range counterValues(segs, false) {
		v[name] = x
	}
	want := map[string]float64{
		"setup_s":            1.2,
		"alloc_bytes_per_op": 22500.0 / 6000,
		"allocs_per_op":      900.0 / 6000,
		"ok_frac":            4000.0 / 6010,
		"wall.ops_per_s":     2000,
		"wall.p50_us":        20,
		"wall.cpu_us_per_op": 2, // 2, 1, 4 µs per op
	}
	for name, x := range want {
		if math.Abs(v[name]-x) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, v[name], x)
		}
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median of an even count = %v, want 2.5", m)
	}
	// statistics.quantiles([1..10], n=4) gives 2.75 and 8.25.
	if q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
}

// BENCHMARK.json and the program agree: same workloads, same metric rows,
// and a run prints every declared name with the declared unit.
func TestSchemaMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type row struct {
		Name, Unit, Better string
		Bound              float64
	}
	var decl struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []row `json:"end_to_end"`
		PerLayer  []row `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatal(err)
	}
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d in the program", len(decl.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if decl.Workloads[i].Name != w.name || decl.Workloads[i].Why != w.why {
			t.Errorf("workload %d: declared %+v, program has %s: %s", i, decl.Workloads[i], w.name, w.why)
		}
	}
	same := func(kind string, declared []row, defs []metricDef) {
		if len(declared) != len(defs) {
			t.Fatalf("%s: %d metrics declared, %d in the program", kind, len(declared), len(defs))
		}
		for i, d := range defs {
			if declared[i] != (row{d.Name, d.Unit, d.Better, d.Bound}) {
				t.Errorf("%s metric %d: declared %+v, program has %+v", kind, i, declared[i], d)
			}
		}
	}
	same("end_to_end", decl.EndToEnd, endToEnd)
	same("per_layer", decl.PerLayer, perLayer)

	p := plan{segment: testSegment, segments: 2, untraced: 1, unit: unitBudget(10 * time.Millisecond)}
	printed := func(res result, declared []row) {
		t.Helper()
		if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
			t.Errorf("run: correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
		}
		if len(res.Metrics) != len(declared) {
			t.Errorf("run printed %d metrics, %d declared", len(res.Metrics), len(declared))
		}
		for _, d := range declared {
			if m, ok := res.Metrics[d.Name]; !ok || m.Unit != d.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				t.Errorf("%s: printed %+v (present: %v), declared unit %q", d.Name, m, ok, d.Unit)
			}
		}
	}
	w := workloadByName("oneshot-consensus")
	res, err := measure(w, 3, p)
	if err != nil {
		t.Fatal(err)
	}
	printed(res, decl.EndToEnd)
	for _, d := range decl.EndToEnd {
		if res.Metrics[d.Name].Value <= 0 {
			t.Errorf("%s = %v: an end-to-end metric is never 0", d.Name, res.Metrics[d.Name].Value)
		}
	}
	res, err = measureTraced(w, 3, p)
	if err != nil {
		t.Fatal(err)
	}
	printed(res, decl.PerLayer)
}
