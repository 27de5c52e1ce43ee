package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync/atomic"
	"time"
)

// This file is the decision-lifecycle tracer: a lock-free, fixed-size
// flight recorder. Writers (process goroutines, the advice service, the
// stress harness) emit small fixed-shape events — instance start, advice
// publication, epoch park/wake, decide — with a handful of atomic stores;
// the ring keeps the most recent window and counts, per event kind,
// everything that fell off it. Dumps are non-destructive and safe
// concurrently with writers, and export both raw JSON and the Chrome
// trace-event format (load the file at chrome://tracing or ui.perfetto.dev
// to see per-instance decision timelines).
//
// Slot protocol (what makes it lock-free AND race-detector-clean): a
// writer claims position p = head.Add(1)-1 and its slot p & mask by
// CASing the slot's sequence word from the previous event's even value to
// the odd 2p+1; field stores and the final even 2p+2 are all atomics, so
// a concurrent reader synchronizes on the sequence word — it accepts a
// slot only when it reads 2p+2 before AND after the field loads. A writer
// that loses the claim CAS (the ring lapped itself into a slot still
// being written) drops its own event; a writer that claims over an unread
// event counts that event's kind as dropped. Either way every emitted
// event is exactly one of: retained, dropped-at-emit, or
// dropped-on-overwrite — the accounting identity trace_test.go asserts
// through wraparound and under -race.

// EventKind identifies a trace event type within a Tracer; the
// instrumented layer defines its kinds as consecutive constants matching
// the name slice passed to NewTracer. At most 256 kinds.
type EventKind uint8

// traceSlot is one ring entry. All fields are atomics so readers can
// validate-load them without locks (see the slot protocol above).
type traceSlot struct {
	seq  atomic.Uint64 // 0 empty, 2p+1 writing position p, 2p+2 written
	ts   atomic.Int64  // ns since trace start
	meta atomic.Uint64 // kind<<32 | uint32(proc)
	run  atomic.Int64  // instance/run identifier
	arg  atomic.Int64  // kind-specific payload
}

// Tracer is the lock-free ring-buffer event recorder. A nil *Tracer is
// valid and discards every emit, so instrumented code paths carry one
// nil-checked pointer and tracing costs nothing when off.
type Tracer struct {
	start time.Time
	names []string
	mask  uint64
	head  atomic.Uint64
	slots []traceSlot
	// drops[kind] counts events of that kind lost to the ring: overwritten
	// before a dump saw them, or abandoned at emit because the ring lapped
	// itself into a slot mid-write.
	drops []atomic.Int64
}

// NewTracer builds a tracer with capacity rounded up to a power of two
// (minimum 16) over the given event-kind names.
func NewTracer(capacity int, kindNames []string) *Tracer {
	size := 16
	for size < capacity {
		size <<= 1
	}
	return &Tracer{
		start: time.Now(),
		names: kindNames,
		mask:  uint64(size - 1),
		slots: make([]traceSlot, size),
		drops: make([]atomic.Int64, len(kindNames)),
	}
}

// Cap returns the ring capacity in events.
func (t *Tracer) Cap() int { return len(t.slots) }

// Emit records one event. Safe from any number of goroutines; never
// blocks, never allocates. proc identifies the emitting process (the
// native layer encodes C-process i as i+1, S-process i as -(i+1), and 0
// as the runtime/service itself); run identifies the instance; arg is
// kind-specific.
func (t *Tracer) Emit(kind EventKind, proc int32, run int64, arg int64) {
	if t == nil {
		return
	}
	pos := t.head.Add(1) - 1
	s := &t.slots[pos&t.mask]
	old := s.seq.Load()
	if old&1 == 1 || !s.seq.CompareAndSwap(old, 2*pos+1) {
		// The ring lapped itself into a slot another writer still owns —
		// only possible when head advances a full ring length during one
		// write. Drop this event rather than corrupt the slot.
		t.drops[kind].Add(1)
		return
	}
	if old != 0 {
		// Overwriting a complete, never-dumped event: account it to its
		// own kind. The meta load is safe — this writer owns the slot.
		t.drops[EventKind(s.meta.Load()>>32)].Add(1)
	}
	s.ts.Store(int64(time.Since(t.start)))
	s.meta.Store(uint64(kind)<<32 | uint64(uint32(proc)))
	s.run.Store(run)
	s.arg.Store(arg)
	s.seq.Store(2*pos + 2)
}

// TraceEvent is one dumped event.
type TraceEvent struct {
	// TS is nanoseconds since the tracer was created.
	TS int64 `json:"ts_ns"`
	// Kind is the event-kind name.
	Kind string `json:"kind"`
	// Proc is the emitting process code (0 = runtime/service, +i =
	// C-process i-1, -i = S-process i-1 in the native encoding).
	Proc int32 `json:"proc"`
	// Run is the instance identifier the event belongs to.
	Run int64 `json:"run"`
	// Arg is the kind-specific payload.
	Arg int64 `json:"arg"`
}

// TraceDump is a non-destructive snapshot of the ring: the retained
// window in emission order, the total emitted count, and the per-kind
// drop counters.
type TraceDump struct {
	Events  []TraceEvent     `json:"events"`
	Emitted uint64           `json:"emitted"`
	Drops   map[string]int64 `json:"drops,omitempty"`
}

// Dump snapshots the ring. Safe concurrently with writers: slots being
// rewritten during the scan are skipped (and will be accounted as drops
// by their overwriters), so a dump taken after writers quiesce satisfies
// emitted == len(events) + sum(drops). Events come back in emission
// order.
func (t *Tracer) Dump() *TraceDump {
	d := &TraceDump{}
	if t == nil {
		return d
	}
	d.Emitted = t.head.Load()
	type posEvent struct {
		pos uint64
		ev  TraceEvent
	}
	found := make([]posEvent, 0, len(t.slots))
	for i := range t.slots {
		s := &t.slots[i]
		seq := s.seq.Load()
		if seq == 0 || seq&1 == 1 {
			continue
		}
		ev := TraceEvent{
			TS:  s.ts.Load(),
			Run: s.run.Load(),
			Arg: s.arg.Load(),
		}
		meta := s.meta.Load()
		if s.seq.Load() != seq {
			continue // torn: a writer claimed the slot mid-read
		}
		ev.Kind = t.kindName(EventKind(meta >> 32))
		ev.Proc = int32(uint32(meta))
		found = append(found, posEvent{pos: (seq - 2) / 2, ev: ev})
	}
	sort.Slice(found, func(i, j int) bool { return found[i].pos < found[j].pos })
	d.Events = make([]TraceEvent, len(found))
	for i, pe := range found {
		d.Events[i] = pe.ev
	}
	d.Drops = make(map[string]int64)
	for k := range t.drops {
		if n := t.drops[k].Load(); n > 0 {
			d.Drops[t.kindName(EventKind(k))] = n
		}
	}
	return d
}

func (t *Tracer) kindName(k EventKind) string {
	if int(k) < len(t.names) {
		return t.names[k]
	}
	return fmt.Sprintf("kind%d", k)
}

// WriteJSON writes the dump as one indented JSON document.
func (d *TraceDump) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(d)
}

// chromeEvent is one Chrome trace-event record: instant events grouped by
// run (pid) and process (tid), so chrome://tracing / Perfetto renders one
// lane per (instance, process) and a decision lifecycle reads left to
// right: run_start → advice publications → parks/wakes → decide.
type chromeEvent struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"` // microseconds
	PID   int64          `json:"pid"`
	TID   int32          `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// WriteChrome writes the dump in the Chrome trace-event format.
func (d *TraceDump) WriteChrome(w io.Writer) error {
	evs := make([]chromeEvent, 0, len(d.Events))
	for _, e := range d.Events {
		evs = append(evs, chromeEvent{
			Name:  e.Kind,
			Phase: "i",
			TS:    float64(e.TS) / 1e3,
			PID:   e.Run,
			TID:   e.Proc,
			Scope: "t",
			Args:  map[string]any{"arg": e.Arg},
		})
	}
	doc := struct {
		TraceEvents []chromeEvent    `json:"traceEvents"`
		Emitted     uint64           `json:"emitted"`
		Drops       map[string]int64 `json:"drops,omitempty"`
	}{TraceEvents: evs, Emitted: d.Emitted, Drops: d.Drops}
	return json.NewEncoder(w).Encode(doc)
}

// WriteChromeFile dumps the ring to a new file at path in the Chrome
// trace-event format: the CLIs' -trace-out.
func (t *Tracer) WriteChromeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = t.Dump().WriteChrome(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
