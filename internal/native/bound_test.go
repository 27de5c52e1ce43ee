package native

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"wfadvice/internal/fdet"
	"wfadvice/internal/sim"
	"wfadvice/internal/vec"
)

// keyTable returns n keys named after gen.
func keyTable(gen string, n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("%s/%d", gen, i)
	}
	return keys
}

// TestBindAfterReleaseShowsOnlyNewKeys: after a table is released, a bind of
// another table — a shorter one, the released slice refilled with other keys
// the way a paxos.Log reuses a window's, a longer one — shows that table only:
// its Len, the registers it reads and writes, its ReadMany collect, never the
// released one's.
func TestBindAfterReleaseShowsOnlyNewKeys(t *testing.T) {
	var problems []string
	fail := func(format string, args ...any) { problems = append(problems, fmt.Sprintf(format, args...)) }
	// shows checks that r is bound to keys: its slots start unwritten, and
	// what it writes its keys read back.
	shows := func(e sim.Ops, r sim.Regs, keys []string, what string) {
		if r.Len() != len(keys) {
			fail("%s: Len %d, want %d", what, r.Len(), len(keys))
			return
		}
		for i, v := range r.ReadMany(nil) {
			if v != nil {
				fail("%s: slot %d reads %v, want %q unwritten", what, i, v, keys[i])
			}
			r.WriteInt(i, 1000+i)
		}
		for i, v := range r.ReadMany(nil) {
			if v != 1000+i || e.Read(keys[i]) != 1000+i {
				fail("%s: slot %d reads %v and its key %v, want %d", what, i, v, e.Read(keys[i]), 1000+i)
			}
		}
	}
	cfg := Config{
		NC: 1, Inputs: vec.Of(1), Pattern: fdet.FailureFree(0),
		CBody: func(int) sim.Body {
			return func(e sim.Ops) {
				old := keyTable("old", 8)
				shows(e, e.Bind(old), old, "first bind")
				e.Release(old)

				fresh := keyTable("new", 5)
				shows(e, e.Bind(fresh), fresh, "shorter table")
				e.Release(fresh)

				for i := range old {
					old[i] = fmt.Sprintf("refilled/%d", i)
				}
				shows(e, e.Bind(old), old, "released slice, refilled")
				e.Release(old)

				long := keyTable("long", 9)
				shows(e, e.Bind(long), long, "longer table")
				e.Decide(0)
			}
		},
	}
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res := rt.Run(time.Minute); res.Reason != ReasonAllDecided {
		t.Fatalf("run ended %v", res.Reason)
	}
	if len(problems) > 0 {
		t.Fatal(strings.Join(problems, "\n"))
	}
}

// TestRearmCrashableFollowsThePattern: whether an S-process's operations
// read the clock to check for its crash is decided at every arming, from the
// run's pattern. A runtime re-armed crash-free, crashing, then crash-free
// again checks only the middle run's victim, the crash strikes that process
// there, and nothing is injected in the other two runs.
func TestRearmCrashableFollowsThePattern(t *testing.T) {
	const ns, victim = 3, 1
	keys := []string{"x"}
	loop := func(e sim.Ops) {
		r := e.Bind(keys)
		for {
			seen := e.Epoch()
			r.Read(0)
			e.AwaitEpoch(seen)
		}
	}
	rt := new(Runtime)
	for run, crashes := range []map[int]fdet.Time{nil, {victim: 0}, nil} {
		cfg := Config{
			NC: 1, NS: ns, Inputs: vec.Of(1), Pattern: fdet.NewPattern(ns, crashes),
			CBody: func(int) sim.Body {
				return func(e sim.Ops) {
					// Wait for the victim's goroutine to be gone, so the crash
					// is not overtaken by the stop.
					live := &e.(*Env).r.live
					for end := time.Now().Add(10 * time.Second); crashes != nil && live.Load() > ns && time.Now().Before(end); {
						e.AwaitEpoch(e.Epoch())
					}
					e.Decide(0)
				}
			},
			SBody: func(int) sim.Body { return loop },
		}
		if err := rt.Reset(cfg); err != nil {
			t.Fatal(err)
		}
		for i, e := range rt.senvs[:ns] {
			if want := crashes != nil && i == victim; e.crashable != want {
				t.Errorf("run %d: s%d crashable = %v, want %v", run, i+1, e.crashable, want)
			}
		}
		res := rt.Run(time.Minute)
		if res.Reason != ReasonAllDecided {
			t.Fatalf("run %d ended %v", run, res.Reason)
		}
		var want []int
		if crashes != nil {
			want = []int{victim}
		}
		if !slices.Equal(res.Crashed, want) {
			t.Errorf("run %d: crashed %v, want %v", run, res.Crashed, want)
		}
	}
}
