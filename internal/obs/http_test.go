package obs

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func debugFixture() (DebugOptions, Handle) {
	c := NewTaxonomy(2, []string{"reg_read", "advice_query"})
	c.Gauge("workers").Set(4)
	c.Histogram("op_latency_ns").Observe(7)
	h := c.Handle()
	hist := NewHistogram()
	hist.Observe(1000)
	hist.Observe(2000)
	tr := NewTracer(16, traceKinds)
	tr.Emit(0, 1, 1, 0)
	return DebugOptions{
		Layers:     []*Taxonomy{c},
		Histograms: map[string]*Histogram{"decision_latency_ns": hist},
		Tracer:     tr,
	}, h
}

func TestDebugHandlerMetrics(t *testing.T) {
	opt, h := debugFixture()
	h.Add(0, 12)
	h.Inc(1)
	srv := httptest.NewServer(DebugHandler(opt))
	defer srv.Close()

	body := get(t, srv.URL+"/metrics")
	for _, want := range []string{
		"wfadvice_reg_read_total 12",
		"wfadvice_advice_query_total 1",
		"wfadvice_decision_latency_ns_bucket{le=\"+Inf\"} 2",
		"wfadvice_decision_latency_ns_count 2",
		"wfadvice_decision_latency_ns_sum 3000",
		"wfadvice_op_latency_ns_count 1",
		"wfadvice_trace_emitted_total 1",
		"wfadvice_goroutines",
		"wfadvice_heap_alloc_bytes",
		"wfadvice_workers 4",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q in:\n%s", want, body)
		}
	}
}

// TestDebugHandlerMoreCounters serves more than one layer from one
// endpoint: every layer's counters, gauges and histograms must appear on
// /metrics (only the first feeds expvar).
func TestDebugHandlerMoreCounters(t *testing.T) {
	opt, h := debugFixture()
	more := NewTaxonomy(1, []string{"explore_node"})
	more.Handle().Add(0, 9)
	more.Gauge("explore_sweep_depth").Set(30)
	more.Histogram("explore_node_depth").Observe(3)
	opt.Layers = append(opt.Layers, more)
	h.Inc(0)
	srv := httptest.NewServer(DebugHandler(opt))
	defer srv.Close()

	body := get(t, srv.URL+"/metrics")
	for _, want := range []string{
		"wfadvice_reg_read_total 1",
		"wfadvice_explore_node_total 9",
		"wfadvice_explore_sweep_depth 30",
		"wfadvice_explore_node_depth_count 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q in:\n%s", want, body)
		}
	}
}

// TestDebugHandlerProgress serves the caller-shaped progress document as
// JSON; without Progress the route must 404.
func TestDebugHandlerProgress(t *testing.T) {
	opt, _ := debugFixture()
	opt.Progress = func() any {
		return map[string]any{"cells_done": 3, "cells_planned": 10}
	}
	srv := httptest.NewServer(DebugHandler(opt))
	defer srv.Close()

	var doc map[string]float64
	if err := json.Unmarshal([]byte(get(t, srv.URL+"/progress")), &doc); err != nil {
		t.Fatalf("/progress: %v", err)
	}
	if doc["cells_done"] != 3 || doc["cells_planned"] != 10 {
		t.Errorf("/progress = %v, want cells_done:3 cells_planned:10", doc)
	}

	plain, _ := debugFixture()
	srv2 := httptest.NewServer(DebugHandler(plain))
	defer srv2.Close()
	resp, err := http.Get(srv2.URL + "/progress")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("/progress without a Progress source: status %d, want 404", resp.StatusCode)
	}
}

func TestDebugHandlerTrace(t *testing.T) {
	opt, _ := debugFixture()
	srv := httptest.NewServer(DebugHandler(opt))
	defer srv.Close()

	var d TraceDump
	if err := json.Unmarshal([]byte(get(t, srv.URL+"/trace")), &d); err != nil {
		t.Fatalf("/trace: %v", err)
	}
	if len(d.Events) != 1 || d.Events[0].Kind != "start" {
		t.Errorf("/trace dump = %+v, want one start event", d)
	}

	var chrome struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(get(t, srv.URL+"/trace?format=chrome")), &chrome); err != nil {
		t.Fatalf("/trace?format=chrome: %v", err)
	}
	if len(chrome.TraceEvents) != 1 {
		t.Errorf("chrome trace has %d events, want 1", len(chrome.TraceEvents))
	}
}

func TestDebugHandlerPprofAndVars(t *testing.T) {
	opt, _ := debugFixture()
	srv := httptest.NewServer(DebugHandler(opt))
	defer srv.Close()
	if body := get(t, srv.URL+"/debug/pprof/"); !strings.Contains(body, "goroutine") {
		t.Error("/debug/pprof/ does not list profiles")
	}
	var vars map[string]json.RawMessage
	if err := json.Unmarshal([]byte(get(t, srv.URL+"/debug/vars")), &vars); err != nil {
		t.Fatalf("/debug/vars: %v", err)
	}
	if _, ok := vars["wfadvice_counters"]; !ok {
		t.Error("/debug/vars missing the wfadvice_counters publication")
	}
}

func get(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 {
		t.Fatalf("GET %s: status %d, body %s", url, resp.StatusCode, body)
	}
	return string(body)
}

// TestHeartbeatPrintsProgressDocument: the -progress line is the /progress
// document — tag, elapsed, the document's fields by key (elapsed_s being the
// second column) — plus the rates of the first layer's counters that moved.
func TestHeartbeatPrintsProgressDocument(t *testing.T) {
	opt, h := debugFixture()
	opt.Progress = func() any {
		h.Add(0, 5) // reg_read moves in every beat, advice_query never
		return map[string]any{"elapsed_s": 1.25, "cells_done": int64(3), "eta_s": 11.52}
	}
	r, w := io.Pipe()
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		heartbeat(w, "bench", time.Millisecond, opt, quit)
	}()
	line, err := bufio.NewReader(r).ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	close(quit)
	go io.Copy(io.Discard, r) //nolint:errcheck // unblock a beat in flight
	<-done
	w.Close()
	fields := strings.Fields(line)
	if len(fields) != 5 || fields[0] != "bench" || fields[2] != "cells_done=3" || fields[3] != "eta_s=11.5" ||
		!strings.HasPrefix(fields[4], "reg_read/s=") {
		t.Fatalf("heartbeat line = %q, want `bench <elapsed> cells_done=3 eta_s=11.5 reg_read/s=…`", line)
	}
}
