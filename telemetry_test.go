package wfadvice_test

import (
	"io"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"wfadvice"
	"wfadvice/internal/exp"
	"wfadvice/internal/explore"
	"wfadvice/internal/kv"
	"wfadvice/internal/native"
	"wfadvice/internal/obs"
	"wfadvice/internal/sim"
)

// The exported series set, pinned: what each CLI's /metrics serves, as
// captured from the CLIs before the layers' telemetry moved into
// obs.Taxonomy, plus the two reclamation counters the native layer has
// gained since. A series dropped, renamed or mounted on the wrong endpoint
// by a refactor fails here, not in a CI curl.
var (
	nativeCounters = strings.Fields(`
		reg_read_keyed reg_write_keyed reg_collect_keyed reg_read_bound
		reg_write_bound reg_read_typed reg_write_typed reg_collect_bound
		advice_query advice_pub_coop advice_pub_waker notify_bump notify_park
		notify_wake notify_timeout store_shard_lookup cell_boxed_store
		cell_generalised cell_memo_miss reg_released cell_array_reused
		run_start decide crash_inject`)
	kvCounters = strings.Fields(`
		kv_op_get kv_op_put kv_proposal kv_batch_commit kv_batch_preempt
		kv_batch_reqs kv_apply kv_dedup_hit kv_retransmit kv_lease_read
		kv_redirect kv_session kv_advice_flap kv_retry kv_deadline_expired`)
	simCounters     = strings.Fields(`sim_run sim_step sim_read sim_write sim_query sim_decide`)
	exploreCounters = strings.Fields(`
		explore_node explore_terminal explore_dedup_hit explore_sleep_prune
		explore_violation explore_sweep explore_item explore_shrink_run
		explore_shrink_reduce`)
	expCounters   = strings.Fields(`exp_cell exp_cell_fail exp_cell_timeout exp_experiment`)
	traceCounters = []string{"trace_emitted", "trace_dropped"}
)

// TestExportedSeries mounts, per CLI, the layers and run-owned sources its
// -http flag mounts and compares the sorted `# TYPE` lines of /metrics with
// the pinned set.
func TestExportedSeries(t *testing.T) {
	hist := obs.NewHistogram()
	for _, c := range []struct {
		cli                          string
		opt                          obs.DebugOptions
		counters, histograms, gauges []string
	}{{
		cli: "efd-stress",
		opt: obs.DebugOptions{Layers: []*obs.Taxonomy{native.Telemetry}, Tracer: native.NewTracer(16),
			Histograms: map[string]*obs.Histogram{"decision_latency_ns": hist}},
		counters:   slices.Concat(nativeCounters, traceCounters),
		histograms: []string{"decision_latency_ns"},
	}, {
		cli: "efd-kv",
		opt: obs.DebugOptions{Layers: []*obs.Taxonomy{native.Telemetry, kv.Telemetry}, Tracer: native.NewTracer(16),
			Histograms: map[string]*obs.Histogram{"kv_open_loop_latency_ns": hist}},
		counters:   slices.Concat(nativeCounters, kvCounters, traceCounters),
		histograms: []string{"kv_open_loop_latency_ns", "kv_get_latency_ns", "kv_put_latency_ns", "kv_lease_latency_ns"},
	}, {
		cli:        "efd-explore",
		opt:        obs.DebugOptions{Layers: []*obs.Taxonomy{explore.Telemetry, sim.Telemetry}},
		counters:   slices.Concat(exploreCounters, simCounters),
		histograms: []string{"explore_node_depth"},
		gauges: []string{"explore_frontier_depth", "explore_frontier_depth_max", "explore_sweep_depth",
			"explore_items_total", "explore_items_done", "explore_shrink_len"},
	}, {
		cli:        "efd-bench",
		opt:        obs.DebugOptions{Layers: []*obs.Taxonomy{exp.Telemetry, sim.Telemetry}},
		counters:   slices.Concat(expCounters, simCounters),
		histograms: []string{"exp_cell_latency_ns"},
		gauges:     []string{"exp_cells_total", "exp_workers_active"},
	}} {
		var want []string
		for kind, names := range map[string][]string{
			"_total counter": c.counters, " histogram": c.histograms,
			" gauge": append(c.gauges, "goroutines", "heap_alloc_bytes", "heap_objects"),
		} {
			for _, name := range names {
				want = append(want, "# TYPE wfadvice_"+name+kind)
			}
		}
		slices.Sort(want)

		rec := httptest.NewRecorder()
		obs.DebugHandler(c.opt).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
		body, _ := io.ReadAll(rec.Result().Body)
		var got []string
		for _, line := range strings.Split(string(body), "\n") {
			if strings.HasPrefix(line, "# TYPE") {
				got = append(got, line)
			}
		}
		slices.Sort(got)
		if !slices.Equal(got, want) {
			t.Errorf("%s /metrics serves\n  %s\nwant\n  %s", c.cli, strings.Join(got, "\n  "), strings.Join(want, "\n  "))
		}
	}
}

// TestStressReportCounterKeys: the counter keys a stress report carries are
// pinned names (zero counters are omitted, so the keys are a subset), and a
// run built with the one switch off carries none — no native or kv recorder
// mints its handle around it.
func TestStressReportCounterKeys(t *testing.T) {
	sc, err := wfadvice.NewScenario(wfadvice.ScenarioParams{Task: "consensus", N: 4, Stabilize: 10})
	if err != nil {
		t.Fatal(err)
	}
	defer wfadvice.NativeEnableMetrics(true)
	for _, on := range []bool{true, false} {
		wfadvice.NativeEnableMetrics(on)
		rep, err := wfadvice.NativeStress(sc.Name, sc.Task, func(seed int64) (wfadvice.NativeConfig, error) {
			return sc.NativeConfig(seed, 20*time.Microsecond), nil
		}, wfadvice.StressOptions{Duration: 100 * time.Millisecond, RunBudget: 5 * time.Second, Workers: 2, Seed: 1})
		if err != nil || rep.Failed() {
			t.Fatalf("stress: %v\n%s", err, rep.Render())
		}
		krep, err := wfadvice.NativeKVStress(wfadvice.KVStressOptions{N: 3, Rate: 2000, Duration: 200 * time.Millisecond, Seed: 1})
		if err != nil || krep.Failed() {
			t.Fatalf("kv stress: %v\n%s", err, krep.Render())
		}
		for _, c := range []struct {
			got    map[string]int64
			pinned []string
			must   string
		}{
			{rep.Counters, nativeCounters, "decide"},
			{krep.Counters, slices.Concat(nativeCounters, kvCounters), "kv_op_put"},
		} {
			if on == (c.got[c.must] == 0) {
				t.Errorf("telemetry=%v: report counts %d %s: %v", on, c.got[c.must], c.must, c.got)
			}
			for name := range c.got {
				if !on || !slices.Contains(c.pinned, name) {
					t.Errorf("telemetry=%v: report carries counter %q", on, name)
				}
			}
		}
	}
}
