package sim

import "testing"

// TestSimOpCounts drives one deterministic run and checks the counter
// deltas against the exact op totals: the echo system does one write, one
// read and one decide per process, and every executed step bumps
// sim_step plus its kind counter.
func TestSimOpCounts(t *testing.T) {
	const nc = 4
	before := Telemetry.Snapshot()
	rt, err := New(echoConfig(nc, 1000))
	if err != nil {
		t.Fatal(err)
	}
	res := rt.Run(&RoundRobin{})
	if res.Reason != ReasonAllDone {
		t.Fatalf("reason = %v, want all-done", res.Reason)
	}
	d := Telemetry.Snapshot().Delta(before)
	m := d.Map()
	if m["sim_run"] != 1 {
		t.Errorf("sim_run delta = %d, want 1", m["sim_run"])
	}
	if m["sim_write"] != nc || m["sim_read"] != nc || m["sim_decide"] != nc {
		t.Errorf("op deltas = write:%d read:%d decide:%d, want %d each",
			m["sim_write"], m["sim_read"], m["sim_decide"], nc)
	}
	if got := m["sim_step"]; got != int64(res.Steps) {
		t.Errorf("sim_step delta = %d, want executed steps %d", got, res.Steps)
	}
	if m["sim_step"] != m["sim_read"]+m["sim_write"]+m["sim_query"]+m["sim_decide"] {
		t.Errorf("sim_step %d != sum of kind counters %v", m["sim_step"], m)
	}
}
