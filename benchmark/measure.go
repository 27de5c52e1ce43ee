package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"

	"wfadvice"
)

// plan is the run shape every workload shares: one warm-up segment, then
// measured segments. Each segment is a fresh system; a forced GC separates
// segments.
type plan struct {
	segment  time.Duration // length of every segment's issue window, the warm-up's too
	segments int           // measured segments of an untraced run
	untraced int           // untraced segments of a traced run
	unit     unitBudget    // traced run: wall time per isolated unit cost
}

// segmentLen is part of every metric's definition: tails and even medians
// drift with run length while log registers are never reclaimed, and the
// harness's per-op records grow by doubling, so bytes per op depend on how
// many ops a segment holds.
const segmentLen = 2500 * time.Millisecond

// planFor fits whole segments into the seconds a run may measure.
func planFor(seconds int) plan {
	return plan{segment: segmentLen, segments: max(1, int(time.Duration(seconds)*time.Second/segmentLen)),
		untraced: 5, unit: unitBudget(300 * time.Millisecond)}
}

// segment is one untraced run of a workload, bracketed by process-level
// readings.
type segment struct {
	rep       *wfadvice.StressReport
	done      int64 // client-visible ops completed
	attempted int64 // completed plus timed out / undecided
	ok        bool  // the harness's checker passed
	cpu       time.Duration
	alloc     uint64 // bytes
	mallocs   uint64 // heap objects
	gcCycles  uint32
	gcPause   time.Duration
	gcCPU     float64 // seconds
	totalCPU  float64 // seconds available to the Go runtime
}

// The per-segment wall-clock values: diagnostics (wall.*), not end-to-end
// metrics, because on a shared box they drift by more than any bound worth
// setting (README, noise floor).
func (s *segment) opsPerSec() float64 { return ratio(float64(s.done), s.rep.Elapsed.Seconds()) }
func (s *segment) p50us() float64     { return micros(s.rep.Latency.P50) }
func (s *segment) cpuPerOp() float64  { return ratio(micros(s.cpu), float64(s.done)) }

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

const (
	gcCPUMetric    = "/cpu/classes/gc/total:cpu-seconds"
	totalCPUMetric = "/cpu/classes/total:cpu-seconds"
)

func runtimeCPU() (gc, total float64) {
	s := []metrics.Sample{{Name: gcCPUMetric}, {Name: totalCPUMetric}}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindFloat64 {
		gc = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		total = s[1].Value.Float64()
	}
	return gc, total
}

// liveHeap is the heap in use after a forced collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// retainedSince is the live heap gained since before while keep is still
// referenced.
func retainedSince(before uint64, keep ...any) uint64 {
	after := liveHeap()
	runtime.KeepAlive(keep)
	if after < before {
		return 0
	}
	return after - before
}

// runSegment runs one untraced segment and then collects garbage, so the
// next segment starts from the same heap.
func runSegment(w *workload, seed int64, d time.Duration) (*segment, error) {
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	gc0, tot0 := runtimeCPU()
	cpu0 := cpuTime()
	rep, err := w.run(seed, d)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	cpu1 := cpuTime()
	gc1, tot1 := runtimeCPU()
	runtime.ReadMemStats(&ms1)
	s := &segment{
		rep: rep, ok: !rep.Failed(),
		cpu: cpu1 - cpu0, alloc: ms1.TotalAlloc - ms0.TotalAlloc, mallocs: ms1.Mallocs - ms0.Mallocs,
		gcCycles: ms1.NumGC - ms0.NumGC, gcPause: time.Duration(ms1.PauseTotalNs - ms0.PauseTotalNs),
		gcCPU: gc1 - gc0, totalCPU: tot1 - tot0,
	}
	s.done, s.attempted = w.ops(rep)
	if !s.ok {
		for _, e := range rep.Errors {
			fmt.Fprintf(logw, "%s: seed %d: checker: %s\n", w.name, seed, e)
		}
	}
	runtime.GC()
	return s, nil
}

// tally is the correctness bookkeeping of a run: a segment the checker
// rejects fails every op it attempted.
type tally struct {
	correct           bool
	attempted, failed int64
}

func (t *tally) add(s *segment) {
	t.attempted += s.attempted
	if s.ok {
		t.failed += s.attempted - s.done
	} else {
		t.failed += s.attempted
		t.correct = false
	}
}

func (t *tally) okFrac() float64 { return ratio(float64(t.attempted-t.failed), float64(t.attempted)) }

// endToEndValues reduces measured segments to the end-to-end metrics. The
// allocation figures are pooled — totals over the run's segments ÷ the ops
// they completed — which repeats better than a median of per-segment ratios.
func endToEndValues(setup time.Duration, segs []*segment, t *tally) map[string]float64 {
	var done, alloc, mallocs float64
	for _, s := range segs {
		done += float64(s.done)
		alloc += float64(s.alloc)
		mallocs += float64(s.mallocs)
	}
	return map[string]float64{
		"setup_s":            setup.Seconds(),
		"alloc_bytes_per_op": ratio(alloc, done),
		"allocs_per_op":      ratio(mallocs, done),
		"ok_frac":            t.okFrac(),
	}
}

// warmUp is a run's set-up: everything between the start of the workload and
// the start of its first measured segment, which is option and scenario
// construction, one warm-up segment with its post-hoc check, and the GC. The
// warm-up's ops are discarded; its verdict is not.
func warmUp(w *workload, seed int64, p plan, t *tally) (time.Duration, error) {
	t0 := time.Now()
	s, err := runSegment(w, seed, p.segment)
	if err != nil {
		return 0, err
	}
	t.correct = t.correct && s.ok
	return time.Since(t0), nil
}

// measure is the untraced run: the warm-up, then measured segments. Segment i
// of the run uses seed+i, the warm-up being segment 0, so no two systems
// share inputs.
func measure(w *workload, seed int64, p plan) (result, error) {
	t := &tally{correct: true}
	setup, err := warmUp(w, seed, p, t)
	if err != nil {
		return result{}, err
	}
	segs := make([]*segment, p.segments)
	for i := range segs {
		seed++
		s, err := runSegment(w, seed, p.segment)
		if err != nil {
			return result{}, err
		}
		segs[i] = s
		t.add(s)
		fmt.Fprintf(logw, "%s: segment %d/%d: ops_per_s=%.0f p50_us=%.3f cpu_us_per_op=%.3f alloc_bytes_per_op=%.0f ok=%v\n",
			w.name, i+1, p.segments, s.opsPerSec(), s.p50us(), s.cpuPerOp(), ratio(float64(s.alloc), float64(s.done)), s.ok)
	}
	return result{Correct: t.correct, Attempted: t.attempted, Failed: t.failed,
		Metrics: report(endToEnd, endToEndValues(setup, segs, t))}, nil
}

// measureTraced is the traced run: the warm-up, a few untraced segments for
// the wall-clock figures, counter ratios, tails and GC figures, one segment
// under the decorator, and the isolated unit costs of the stack phase.
func measureTraced(w *workload, seed int64, p plan) (result, error) {
	t := &tally{correct: true}
	setup, err := warmUp(w, seed, p, t)
	if err != nil {
		return result{}, err
	}
	segs := make([]*segment, p.untraced)
	for i := range segs {
		seed++
		if segs[i], err = runSegment(w, seed, p.segment); err != nil {
			return result{}, err
		}
		t.add(segs[i])
	}
	seed++
	ts, err := w.traced(seed, p.segment)
	if err != nil {
		return result{}, fmt.Errorf("%s: traced: %w", w.name, err)
	}
	if ts.err != nil {
		fmt.Fprintf(logw, "%s: seed %d: traced checker: %v\n", w.name, seed, ts.err)
		t.correct = false
	}
	runtime.GC()
	fmt.Fprintf(logw, "%s: trace written to %s\n", w.name, ts.tracePath)
	v := counterValues(segs, w.kv)
	// What the set-up cost beyond its fixed issue window: construction, drain,
	// post-hoc check and GC, which is where work moved into set-up lands.
	v["setup.outside_window_ms"] = float64((setup - p.segment).Microseconds()) / 1e3
	tracedValues(v, ts, segs)
	if err := stackValues(v, p.unit); err != nil {
		return result{}, err
	}
	return result{Correct: t.correct, Attempted: t.attempted, Failed: t.failed, Metrics: report(perLayer, v)}, nil
}

// counterValues derives the per-layer figures that need no decorator: the
// wall-clock figures (medians over the untraced segments), ratios of the
// harness's own counters, latency tails, and the Go runtime's GC accounting,
// summed over the untraced segments.
func counterValues(segs []*segment, kv bool) map[string]float64 {
	var done, wallS, gcCPU, totalCPU, gcPauseMs, gcCycles float64
	counters := map[string]int64{}
	var ops, p50, cpu, p99, p999, maxMs []float64
	for _, s := range segs {
		ops = append(ops, s.opsPerSec())
		p50 = append(p50, s.p50us())
		cpu = append(cpu, s.cpuPerOp())
		done += float64(s.done)
		wallS += s.rep.Elapsed.Seconds()
		gcCPU += s.gcCPU
		totalCPU += s.totalCPU
		gcPauseMs += float64(s.gcPause.Nanoseconds()) / 1e6
		gcCycles += float64(s.gcCycles)
		for k, n := range s.rep.Counters {
			counters[k] += n
		}
		p99 = append(p99, micros(s.rep.Latency.P99))
		p999 = append(p999, micros(s.rep.Latency.P999))
		maxMs = append(maxMs, micros(s.rep.Latency.Max)/1e3)
	}
	c := func(name string) float64 { return float64(counters[name]) }
	var writes float64
	for _, name := range []string{"reg_write_keyed", "reg_write_bound", "reg_write_typed"} {
		writes += c(name)
	}
	v := map[string]float64{
		"wall.ops_per_s":           median(ops),
		"wall.p50_us":              median(p50),
		"wall.cpu_us_per_op":       median(cpu),
		"native.reg_writes_per_op": ratio(writes, done),
		"go.gc_cycles_per_s":       ratio(gcCycles, wallS),
		"go.gc_pause_ms_per_s":     ratio(gcPauseMs, wallS),
		"go.gc_cpu_frac":           ratio(gcCPU, totalCPU),
	}
	if kv {
		v["kv.ops_per_batch"] = ratio(c("kv_batch_reqs"), c("kv_batch_commit"))
		v["kv.lease_read_frac"] = ratio(c("kv_lease_read"), done)
		v["kv.preempt_per_kop"] = ratio(1e3*c("kv_batch_preempt"), done)
		v["kv.retry_per_kop"] = ratio(1e3*c("kv_retry"), done)
		v["kv.timeouts"] = c("kv_deadline_expired")
		v["kv.p99_us"] = median(p99)
		v["kv.p999_us"] = median(p999)
		v["kv.max_ms"] = median(maxMs)
	}
	return v
}

// tracedValues adds what the decorated segment measured, per completed op.
func tracedValues(v map[string]float64, ts *tracedSegment, untraced []*segment) {
	ops := float64(ts.ops)
	tot := ts.totals
	var regCalls int64
	var regBusy float64
	for l := layerNative; l <= layerCore; l++ {
		regCalls += tot.calls[l]
		regBusy += tot.busy[l]
	}
	v["native.reg_calls_per_op"] = ratio(float64(regCalls), ops)
	v["native.reg_busy_ns_per_op"] = ratio(regBusy, ops)
	v["native.pause_calls_per_op"] = ratio(float64(tot.calls[layerPause]), ops)
	v["native.pause_wait_ns_per_op"] = ratio(tot.busy[layerPause], ops)
	v["native.keys_bound_per_op"] = ratio(float64(tot.keysBound), ops)
	v["native.retained_bytes_per_op"] = ratio(float64(ts.retained), ops)
	v["paxos.reg_calls_per_op"] = ratio(float64(tot.calls[layerPaxos]), ops)
	v["paxos.busy_ns_per_op"] = ratio(tot.busy[layerPaxos], ops)
	v["kv.mailbox_calls_per_op"] = ratio(float64(tot.calls[layerKV]), ops)
	v["kv.mailbox_busy_ns_per_op"] = ratio(tot.busy[layerKV], ops)
	v["kv.clerk_polls_per_op"] = ratio(float64(tot.repReads), ops)
	v["kv.service_p50_us"] = micros(ts.serviceP50)
	v["kv.gen_late_p99_us"] = micros(ts.genLateP99)
	v["kv.stall_ms_per_s"] = ratio(ts.stallMs, ts.elapsed.Seconds())
	v["kv.check_ns_per_op"] = ratio(ts.checkNs, ops)
	v["core.reg_calls_per_op"] = ratio(float64(tot.calls[layerCore]), ops)
	v["trace.cut_us"] = cutNs(tot.cut) / 1e3
	v["trace.cut_share"] = tot.cutShare

	var base []float64
	for _, s := range untraced {
		base = append(base, s.opsPerSec())
	}
	v["trace.overhead_frac"] = 1 - ratio(ratio(ops, ts.elapsed.Seconds()), median(base))
}
