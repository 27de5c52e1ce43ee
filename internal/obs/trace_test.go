package obs

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"
)

var traceKinds = []string{"start", "tick", "decide"}

func TestTracerNil(t *testing.T) {
	var tr *Tracer
	tr.Emit(0, 1, 2, 3) // must not panic
	d := tr.Dump()
	if len(d.Events) != 0 || d.Emitted != 0 {
		t.Errorf("nil tracer dump = %+v, want empty", d)
	}
}

func TestTracerBasic(t *testing.T) {
	tr := NewTracer(16, traceKinds)
	tr.Emit(0, 1, 100, 7)
	tr.Emit(1, -2, 100, 8)
	tr.Emit(2, 1, 100, 9)
	d := tr.Dump()
	if d.Emitted != 3 || len(d.Events) != 3 {
		t.Fatalf("emitted %d, retained %d, want 3/3", d.Emitted, len(d.Events))
	}
	want := []TraceEvent{
		{Kind: "start", Proc: 1, Run: 100, Arg: 7},
		{Kind: "tick", Proc: -2, Run: 100, Arg: 8},
		{Kind: "decide", Proc: 1, Run: 100, Arg: 9},
	}
	for i, w := range want {
		got := d.Events[i]
		if got.Kind != w.Kind || got.Proc != w.Proc || got.Run != w.Run || got.Arg != w.Arg {
			t.Errorf("event %d = %+v, want %+v (modulo TS)", i, got, w)
		}
		if i > 0 && got.TS < d.Events[i-1].TS {
			t.Errorf("event %d timestamp went backwards", i)
		}
	}
	if len(d.Drops) != 0 {
		t.Errorf("drops = %v, want none", d.Drops)
	}
}

// TestTracerCapClamped: a capacity past MaxTraceCap builds the largest ring
// instead of overflowing the doubling loop (which used to spin at 0) or
// asking for a ring the machine cannot hold.
func TestTracerCapClamped(t *testing.T) {
	for _, capacity := range []int{MaxTraceCap + 1, 1<<62 + 1} {
		if got := NewTracer(capacity, traceKinds).Cap(); got != MaxTraceCap {
			t.Errorf("NewTracer(%d).Cap() = %d, want %d", capacity, got, MaxTraceCap)
		}
	}
	if got := NewTracer(-1, traceKinds).Cap(); got != 16 {
		t.Errorf("NewTracer(-1).Cap() = %d, want 16", got)
	}
}

// TestTracerWraparound drives the ring through several full laps and
// checks the flight-recorder contract: the dump holds exactly the most
// recent capacity-many events in order, and the drop counters account for
// every overwritten event, by kind, exactly.
func TestTracerWraparound(t *testing.T) {
	tr := NewTracer(16, traceKinds)
	if tr.Cap() != 16 {
		t.Fatalf("cap = %d, want 16", tr.Cap())
	}
	const total = 48 // 3 laps
	for i := 0; i < total; i++ {
		tr.Emit(EventKind(i%len(traceKinds)), 0, int64(i/8), int64(i))
	}
	d := tr.Dump()
	if d.Emitted != total {
		t.Errorf("emitted = %d, want %d", d.Emitted, total)
	}
	if len(d.Events) != 16 {
		t.Fatalf("retained %d events, want 16", len(d.Events))
	}
	for i, ev := range d.Events {
		wantArg := int64(total - 16 + i)
		if ev.Arg != wantArg {
			t.Errorf("event %d arg = %d, want %d (window must be the newest events in order)", i, ev.Arg, wantArg)
		}
	}
	// 32 events were overwritten; kinds cycle 0,1,2 so the per-kind drop
	// split of args 0..31 is start:11, tick:11, decide:10.
	wantDrops := map[string]int64{"start": 11, "tick": 11, "decide": 10}
	var sum int64
	for k, n := range wantDrops {
		if d.Drops[k] != n {
			t.Errorf("drops[%s] = %d, want %d", k, d.Drops[k], n)
		}
		sum += d.Drops[k]
	}
	if sum+int64(len(d.Events)) != int64(d.Emitted) {
		t.Errorf("accounting: %d dropped + %d retained != %d emitted", sum, len(d.Events), d.Emitted)
	}
}

// TestTracerConcurrent hammers the ring from many writers with a live
// dumper under -race, then asserts the quiescent accounting identity:
// every emitted event is retained or counted dropped.
func TestTracerConcurrent(t *testing.T) {
	tr := NewTracer(256, traceKinds)
	const workers, per = 8, 4000
	stop := make(chan struct{})
	var dumpWG sync.WaitGroup
	dumpWG.Add(1)
	go func() {
		defer dumpWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
				d := tr.Dump()
				if len(d.Events) > tr.Cap() {
					t.Errorf("dump returned %d events, cap %d", len(d.Events), tr.Cap())
					return
				}
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				tr.Emit(EventKind(i%len(traceKinds)), int32(w), int64(w), int64(i))
			}
		}()
	}
	wg.Wait()
	close(stop)
	dumpWG.Wait()
	d := tr.Dump()
	if d.Emitted != workers*per {
		t.Fatalf("emitted = %d, want %d", d.Emitted, workers*per)
	}
	var drops int64
	for _, n := range d.Drops {
		drops += n
	}
	if got := drops + int64(len(d.Events)); got != int64(d.Emitted) {
		t.Errorf("accounting: %d dropped + %d retained = %d, want %d emitted",
			drops, len(d.Events), got, d.Emitted)
	}
}

func TestTraceExports(t *testing.T) {
	tr := NewTracer(16, traceKinds)
	tr.Emit(0, 1, 5, 0)
	tr.Emit(2, 1, 5, 9)
	for i := 0; i < 20; i++ { // force some drops into the export
		tr.Emit(1, 2, 6, int64(i))
	}
	d := tr.Dump()

	var buf bytes.Buffer
	if err := d.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back TraceDump
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("raw JSON round-trip: %v", err)
	}
	if len(back.Events) != len(d.Events) || back.Emitted != d.Emitted {
		t.Errorf("round-trip lost events: %d/%d vs %d/%d",
			len(back.Events), back.Emitted, len(d.Events), d.Emitted)
	}

	buf.Reset()
	if err := d.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var chrome struct {
		TraceEvents []struct {
			Name  string  `json:"name"`
			Phase string  `json:"ph"`
			TS    float64 `json:"ts"`
			PID   int64   `json:"pid"`
			TID   int32   `json:"tid"`
		} `json:"traceEvents"`
		Emitted uint64           `json:"emitted"`
		Drops   map[string]int64 `json:"drops"`
	}
	if err := json.Unmarshal(buf.Bytes(), &chrome); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	if len(chrome.TraceEvents) != len(d.Events) {
		t.Errorf("chrome export has %d events, want %d", len(chrome.TraceEvents), len(d.Events))
	}
	for _, ev := range chrome.TraceEvents {
		if ev.Phase != "i" {
			t.Errorf("chrome phase = %q, want instant", ev.Phase)
		}
	}
	if chrome.Drops["tick"] == 0 {
		t.Error("chrome export lost the drop counters")
	}
}
