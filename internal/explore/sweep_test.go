package explore_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"wfadvice/internal/explore"
	"wfadvice/internal/fdet"
	"wfadvice/internal/sim"
	"wfadvice/internal/vec"
)

// ladder sweeps seeds 0..n-1, seed s being one process that reads s+1 times
// and decides s; a seed whose fate is "fail" fails its check, one whose fate
// is "panic" panics in its body. With reversed set, each seed's check first
// waits for the next seed's to return, so with n workers the seeds finish
// from the highest down.
func ladder(n int, fate map[int64]string, reversed bool) func(int64) (explore.Spec, sim.Scheduler) {
	done := make([]chan struct{}, n+1)
	for i := range done {
		done[i] = make(chan struct{})
	}
	close(done[n])
	return func(seed int64) (explore.Spec, sim.Scheduler) {
		body := func(e sim.Ops) {
			for range seed + 1 {
				e.Read("r")
			}
			if fate[seed] == "panic" {
				panic(fmt.Sprintf("body of seed %d", seed))
			}
			e.Decide(seed)
		}
		return explore.Spec{
			Name: "ladder",
			New: func(maxSteps int) (*sim.Runtime, error) {
				return sim.New(sim.Config{NC: 1, Inputs: vec.Of(1), Pattern: fdet.FailureFree(0), MaxSteps: maxSteps,
					CBody: func(int) sim.Body { return body }})
			},
			Check: func(res *sim.Result) error {
				if reversed {
					<-done[seed+1]
					defer close(done[seed])
				}
				if fate[seed] == "fail" {
					return fmt.Errorf("decided %v", res.Outputs[0])
				}
				return nil
			},
		}, &sim.RoundRobin{}
	}
}

// TestSweepLowestFailingSeedAtAnyWorkerCount: one worker takes the seeds in
// order; eight take them all at once and, reversed, finish them from the
// highest down, so seeds 6 and 5 fail before 2 does. Both report 2, with the
// same counts, error and trace, and the trace replays from its text form to
// the same verdict.
func TestSweepLowestFailingSeedAtAnyWorkerCount(t *testing.T) {
	fate := map[int64]string{2: "fail", 5: "fail", 6: "fail"}
	one := explore.Sweep(ladder(8, fate, false), 100, 0, 8, 1)
	eight := explore.Sweep(ladder(8, fate, true), 100, 0, 8, 8)
	if one.Tried != 8 || one.Hits != 3 || one.Seed != 2 || one.Err != "decided 2" || one.Steps != 4 || one.Trace == nil {
		t.Fatalf("one worker: %+v", one)
	}
	if !reflect.DeepEqual(one, eight) {
		t.Fatalf("outcomes differ:\none worker:    %+v\neight workers: %+v", one, eight)
	}
	back, err := explore.ParseTrace(one.Trace.Format())
	if err != nil {
		t.Fatal(err)
	}
	spec, _ := ladder(8, fate, false)(one.Seed)
	if rep, err := explore.ReplayTrace(spec, back); err != nil || !rep.Match || rep.Verdict != one.Err {
		t.Fatalf("replay of seed %d: %+v, %v", one.Seed, rep, err)
	}
}

// TestSweepPanicFailsItsSeed: a run that panics fails its seed, with the
// panic as its error and no trace, and every later seed still runs.
func TestSweepPanicFailsItsSeed(t *testing.T) {
	out := explore.Sweep(ladder(8, map[int64]string{3: "panic", 7: "panic"}, false), 100, 0, 8, 2)
	if out.Tried != 8 || out.Hits != 2 || out.Seed != 3 || out.Err != "panic: body of seed 3" || out.Trace != nil {
		t.Fatalf("%+v", out)
	}
	if err := out.Failure(); err == nil || !strings.HasPrefix(err.Error(), "seed 3 failed (2 of 8 seeds)") {
		t.Fatalf("failure %v does not name seed 3", err)
	}
}
