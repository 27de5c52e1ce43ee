package sim

import (
	"reflect"
	"testing"

	"wfadvice/internal/fdet"
	"wfadvice/internal/ids"
	"wfadvice/internal/vec"
)

// These tests pin the batched-collect step shape on the sim backend: a
// ReadMany over n keys must be indistinguishable — in trace, step count and
// interleaving surface — from the n-read loop it replaces. This is the
// contract that lets bodies port to the batched path without perturbing any
// explorer, trace or experiment result.

// TestReadManyConsumesOneStepPerKey drives a lone ReadMany body under a
// scripted scheduler and asserts the exact event sequence: one OpRead per
// key, in key order, each consuming exactly one scheduled step.
func TestReadManyConsumesOneStepPerKey(t *testing.T) {
	keys := []string{"a", "b", "c"}
	var got []Value
	cfg := Config{
		NC: 1, Inputs: vec.Of(1),
		CBody: func(i int) Body {
			return func(e Ops) {
				e.Write("b", 7) // seed one of the collect slots
				got = e.ReadMany(keys)
				e.Decide(0)
			}
		},
		Pattern:  fdet.FailureFree(0),
		MaxSteps: 100,
	}
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	script := make([]ids.Proc, 1+len(keys)+1) // write + n reads + decide
	for i := range script {
		script[i] = ids.C(0)
	}
	res := rt.Run(&Scripted{Seq: script})
	want := []Event{
		{Step: 0, Proc: ids.C(0), Kind: OpWrite, Key: "b", Val: 7},
		{Step: 1, Proc: ids.C(0), Kind: OpRead, Key: "a", Val: nil},
		{Step: 2, Proc: ids.C(0), Kind: OpRead, Key: "b", Val: 7},
		{Step: 3, Proc: ids.C(0), Kind: OpRead, Key: "c", Val: nil},
		{Step: 4, Proc: ids.C(0), Kind: OpDecide, Key: "", Val: 0},
	}
	if !reflect.DeepEqual(res.Trace, want) {
		t.Fatalf("trace = %+v\nwant %+v", res.Trace, want)
	}
	if !reflect.DeepEqual(got, []Value{nil, 7, nil}) {
		t.Fatalf("collect = %v, want [nil 7 nil]", got)
	}
	if res.Steps != len(want) {
		t.Fatalf("consumed %d steps, want %d (one per operation)", res.Steps, len(want))
	}
}

// TestReadManyInterleavedWriteVisibility: a write scheduled between two
// reads of one collect must be visible to the later read and invisible to
// the earlier — regular-collect semantics, exactly as the old n-read loop.
func TestReadManyInterleavedWriteVisibility(t *testing.T) {
	keys := []string{"r/0", "r/1"}
	var got []Value
	cfg := Config{
		NC: 2, Inputs: vec.Of(1, 2),
		CBody: func(i int) Body {
			if i == 0 {
				return func(e Ops) {
					got = e.ReadMany(keys)
					e.Decide(0)
				}
			}
			return func(e Ops) {
				e.Write("r/0", "late")
				e.Write("r/1", "seen")
				e.Decide(1)
			}
		},
		Pattern:  fdet.FailureFree(0),
		MaxSteps: 100,
	}
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// p1 reads r/0 (nil), then p2 writes both slots, then p1 reads r/1: the
	// collect must be [nil, "seen"] — the r/0 write landed too late, the
	// r/1 write in time.
	script := []ids.Proc{
		ids.C(0),           // read r/0
		ids.C(1), ids.C(1), // write r/0, write r/1
		ids.C(0),           // read r/1
		ids.C(0), ids.C(1), // decide both
	}
	rt.Run(&Scripted{Seq: script})
	if !reflect.DeepEqual(got, []Value{nil, "seen"}) {
		t.Fatalf("collect = %v, want [nil seen] (regular collect, not a snapshot)", got)
	}
}

// schedFunc adapts a function to the Scheduler interface.
type schedFunc func(v *View) (ids.Proc, bool)

func (f schedFunc) Next(v *View) (ids.Proc, bool) { return f(v) }

// TestReadManyPendingOps: each read of a batched collect parks as an
// ordinary OpRead pending operation, so schedule explorers see the same
// independence structure as the unbatched loop.
func TestReadManyPendingOps(t *testing.T) {
	keys := []string{"x", "y"}
	cfg := Config{
		NC: 1, Inputs: vec.Of(1),
		CBody: func(i int) Body {
			return func(e Ops) {
				e.ReadMany(keys)
				e.Decide(0)
			}
		},
		Pattern:  fdet.FailureFree(0),
		MaxSteps: 100,
	}
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var pendings []PendingOp
	rt.Run(schedFunc(func(v *View) (ids.Proc, bool) {
		pendings = append(pendings, v.Pending(ids.C(0)))
		return ids.C(0), true
	}))
	want := []PendingOp{
		{Kind: OpRead, Key: "x"},
		{Kind: OpRead, Key: "y"},
		{Kind: OpDecide},
	}
	if !reflect.DeepEqual(pendings, want) {
		t.Fatalf("pending ops = %+v, want %+v", pendings, want)
	}
}
