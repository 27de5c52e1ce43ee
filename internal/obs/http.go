package obs

import (
	"encoding/json"
	"expvar"
	"fmt"
	"io"
	"maps"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"runtime"
	"slices"
	"strings"
	"sync"
	"time"
)

// This file is the live debug endpoint behind the CLIs' -http flag: one
// http.Handler that serves the whole observability surface while a
// workload runs — Prometheus-text /metrics (counters, histograms, runtime
// gauges), /trace ring dumps (raw JSON or Chrome trace format), the full
// net/http/pprof suite for profiling a stress run in flight, and expvar —
// and the stderr heartbeat behind their -progress flag, which prints the
// same /progress document on a cadence.

// DebugOptions configures DebugHandler. Every field is optional; nil
// sources simply don't serve.
type DebugOptions struct {
	// Layers are the instrumented layers to export, in order: each
	// layer's counters serialize as wfadvice_<name>_total, its gauges as
	// wfadvice_<name> and its histograms in the Prometheus histogram
	// convention (cumulative _bucket series plus _sum and _count). A layer
	// that sits on top of another (the explorer over the sim runtime, the
	// kv over the native backend) serves both from one endpoint. The first
	// layer's counters are also the set published to expvar.
	Layers []*Taxonomy
	// Histograms are the run-owned histograms no layer declares (e.g.
	// "decision_latency_ns", which the stress harness and the endpoint
	// share), keyed by metric base name.
	Histograms map[string]*Histogram
	// Tracer, if set, serves /trace dumps.
	Tracer *Tracer
	// Progress, if set, is served at /progress as a JSON document — the
	// caller-shaped live-progress summary (cells done/total, nodes/sec,
	// ETA) that a dashboard or a CI curl reads without parsing Prometheus
	// text — and is what ServeDebug's heartbeat prints.
	Progress func() any
}

// expvarOnce guards the process-global expvar publication (expvar.Publish
// panics on duplicate names, and tests build multiple handlers).
var expvarOnce sync.Once

// DebugHandler builds the live debug endpoint:
//
//	/metrics       Prometheus text: counters, histograms, runtime gauges
//	/trace         tracer ring dump (JSON; ?format=chrome for trace viewers)
//	/progress      caller-shaped live-progress JSON (when Progress is set)
//	/debug/pprof/  the standard pprof index, profiles and symbolization
//	/debug/vars    expvar (includes the counter snapshot)
func DebugHandler(o DebugOptions) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		writeMetrics(w, o)
	})
	if o.Tracer != nil {
		mux.HandleFunc("/trace", func(w http.ResponseWriter, r *http.Request) {
			d := o.Tracer.Dump()
			w.Header().Set("Content-Type", "application/json")
			if r.URL.Query().Get("format") == "chrome" {
				_ = d.WriteChrome(w)
				return
			}
			_ = d.WriteJSON(w)
		})
	}
	if o.Progress != nil {
		mux.HandleFunc("/progress", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			_ = enc.Encode(o.Progress())
		})
	}
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	if len(o.Layers) > 0 {
		first := o.Layers[0]
		expvarOnce.Do(func() {
			expvar.Publish("wfadvice_counters", expvar.Func(func() any {
				return first.Snapshot().Map()
			}))
		})
	}
	mux.Handle("/debug/vars", expvar.Handler())
	return mux
}

// ServeDebug is a CLI's -http and -progress flags: it listens on addr,
// announces the endpoint on stderr under the program's name and serves
// DebugHandler(o) in the background, and prints o.Progress to stderr every
// beat (see heartbeat), both until the returned stop is called. An empty addr
// serves nothing and a zero beat prints nothing. The error is the listen
// error as net reports it (it already names the operation and the address).
func ServeDebug(prog, addr string, beat time.Duration, o DebugOptions) (stop func(), err error) {
	quit := make(chan struct{})
	var wg sync.WaitGroup
	var srv http.Server
	if addr != "" {
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			return nil, err
		}
		srv.Handler = DebugHandler(o)
		serves := []string{"metrics"}
		if o.Tracer != nil {
			serves = append(serves, "trace")
		}
		if o.Progress != nil {
			serves = append(serves, "progress")
		}
		fmt.Fprintf(os.Stderr, "%s: debug endpoint on http://%s/ (%s, debug/pprof)\n", prog, ln.Addr(), strings.Join(serves, ", "))
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = srv.Serve(ln) // returns once stop closes the server
		}()
	}
	if beat > 0 && o.Progress != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			heartbeat(os.Stderr, strings.TrimPrefix(prog, "efd-"), beat, o, quit)
		}()
	}
	return func() {
		close(quit)
		_ = srv.Close()
		wg.Wait()
	}, nil
}

// heartbeat writes one line per beat to w until quit closes, in the
// `efd-stress -snapshot` shape — a tag, the rounded elapsed time, then k=v
// fields: the /progress document's own when it is a map[string]any (sorted
// by key; elapsed_s is the line's second column), then the per-second rate
// over the beat of every counter of the first layer that moved in it. The
// line is the document, so a CLI describes its progress once and gets the
// endpoint and the heartbeat.
func heartbeat(w io.Writer, tag string, beat time.Duration, o DebugOptions, quit <-chan struct{}) {
	start := time.Now()
	var s *Sampler
	if len(o.Layers) > 0 {
		s = NewSampler(o.Layers[0])
	}
	t := time.NewTicker(beat)
	defer t.Stop()
	for {
		select {
		case <-quit:
			return
		case <-t.C:
		}
		line := fmt.Sprintf("%s %8s ", tag, time.Since(start).Round(time.Second))
		doc, _ := o.Progress().(map[string]any)
		for _, k := range slices.Sorted(maps.Keys(doc)) {
			if k == "elapsed_s" {
				continue // the column just printed
			}
			if f, ok := doc[k].(float64); ok {
				line += fmt.Sprintf(" %s=%.1f", k, f)
			} else {
				line += fmt.Sprintf(" %s=%v", k, doc[k])
			}
		}
		if s != nil {
			rates := s.Sample().Rates()
			for _, k := range slices.Sorted(maps.Keys(rates)) {
				line += fmt.Sprintf(" %s/s=%.1f", k, rates[k])
			}
		}
		fmt.Fprintln(w, line)
	}
}

// writeMetrics renders the Prometheus text exposition.
func writeMetrics(w http.ResponseWriter, o DebugOptions) {
	const p = "wfadvice" // the metric namespace
	hists := make(map[string]*Histogram)
	maps.Copy(hists, o.Histograms)
	gauges := make(map[string]int64)
	for _, l := range o.Layers {
		s := l.Snapshot()
		for i, name := range l.names {
			fmt.Fprintf(w, "# TYPE %s_%s_total counter\n", p, name)
			fmt.Fprintf(w, "%s_%s_total %d\n", p, name, s.Get(CounterID(i)))
		}
		maps.Copy(hists, l.hists)
		maps.Copy(gauges, l.Gauges())
	}
	for _, name := range slices.Sorted(maps.Keys(hists)) {
		s := hists[name].Snapshot()
		fmt.Fprintf(w, "# TYPE %s_%s histogram\n", p, name)
		cum := int64(0)
		for _, b := range s.Buckets {
			cum += b.N
			fmt.Fprintf(w, "%s_%s_bucket{le=\"%d\"} %d\n", p, name, b.Hi, cum)
		}
		fmt.Fprintf(w, "%s_%s_bucket{le=\"+Inf\"} %d\n", p, name, s.Count)
		fmt.Fprintf(w, "%s_%s_sum %d\n", p, name, s.Sum)
		fmt.Fprintf(w, "%s_%s_count %d\n", p, name, s.Count)
	}
	if o.Tracer != nil {
		d := o.Tracer.Dump()
		fmt.Fprintf(w, "# TYPE %s_trace_emitted_total counter\n", p)
		fmt.Fprintf(w, "%s_trace_emitted_total %d\n", p, d.Emitted)
		var drops int64
		for _, n := range d.Drops {
			drops += n
		}
		fmt.Fprintf(w, "# TYPE %s_trace_dropped_total counter\n", p)
		fmt.Fprintf(w, "%s_trace_dropped_total %d\n", p, drops)
	}
	gauges["goroutines"] = int64(runtime.NumGoroutine())
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	gauges["heap_alloc_bytes"] = int64(ms.HeapAlloc)
	gauges["heap_objects"] = int64(ms.HeapObjects)
	for _, k := range slices.Sorted(maps.Keys(gauges)) {
		fmt.Fprintf(w, "# TYPE %s_%s gauge\n", p, k)
		fmt.Fprintf(w, "%s_%s %d\n", p, k, gauges[k])
	}
}
