package sim

import (
	"reflect"
	"testing"

	"wfadvice/internal/fdet"
	"wfadvice/internal/ids"
	"wfadvice/internal/vec"
)

// These tests pin the bound-handle step shape on the sim backend: every
// Regs operation must be indistinguishable — in trace, step count and
// pending-op surface — from the keyed Ops operation it replaces. This is
// the contract that let every body in the repo port onto Bind without
// perturbing any schedule, explorer state space, trace or experiment byte
// (E13/E14 regenerate identically before and after the port).

// TestBindStepShape drives a body using every Regs operation under a
// scripted scheduler and asserts the exact event sequence matches the keyed
// equivalents: one step per read/write (typed or not), Len steps per
// ReadMany, identical keys and values.
func TestBindStepShape(t *testing.T) {
	keys := []string{"a", "b", "c"}
	var collect []Value
	var gotInt int
	var gotOK bool
	cfg := Config{
		NC: 1, Inputs: vec.Of(1),
		CBody: func(i int) Body {
			return func(e Ops) {
				r := e.Bind(keys)
				if r.Len() != len(keys) {
					t.Errorf("bound surface: Len=%d", r.Len())
				}
				r.Write(1, 7)                // keyed: Write("b", 7)
				r.WriteInt(0, 300)           // keyed: Write("a", 300)
				gotInt, gotOK = r.ReadInt(0) // keyed: Read("a")
				collect = r.ReadMany(nil)    // keyed: Read a, b, c
				_ = r.Read(2)                // keyed: Read("c")
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
	script := make([]ids.Proc, 8) // 2 writes + 1 read + 3 collect reads + 1 read + decide
	for i := range script {
		script[i] = ids.C(0)
	}
	res := rt.Run(&Scripted{Seq: script})
	want := []Event{
		{Step: 0, Proc: ids.C(0), Kind: OpWrite, Key: "b", Val: 7},
		{Step: 1, Proc: ids.C(0), Kind: OpWrite, Key: "a", Val: 300},
		{Step: 2, Proc: ids.C(0), Kind: OpRead, Key: "a", Val: 300},
		{Step: 3, Proc: ids.C(0), Kind: OpRead, Key: "a", Val: 300},
		{Step: 4, Proc: ids.C(0), Kind: OpRead, Key: "b", Val: 7},
		{Step: 5, Proc: ids.C(0), Kind: OpRead, Key: "c", Val: nil},
		{Step: 6, Proc: ids.C(0), Kind: OpRead, Key: "c", Val: nil},
		{Step: 7, Proc: ids.C(0), Kind: OpDecide, Key: "", Val: 0},
	}
	if !reflect.DeepEqual(res.Trace, want) {
		t.Fatalf("trace = %+v\nwant %+v", res.Trace, want)
	}
	if !gotOK || gotInt != 300 {
		t.Fatalf("ReadInt = (%d, %v), want (300, true)", gotInt, gotOK)
	}
	if !reflect.DeepEqual(collect, []Value{300, 7, nil}) {
		t.Fatalf("collect = %v, want [300 7 nil]", collect)
	}
	if res.Steps != len(want) {
		t.Fatalf("consumed %d steps, want %d (one per operation)", res.Steps, len(want))
	}
}

// TestBindReadManyBuffer: a caller-supplied buffer is filled in place (the
// allocation-free contract); a nil or short one is replaced by the handle's
// own buffer, which the handle's next collect overwrites; and whichever
// buffer it fills, a collect is one scheduled step per slot.
func TestBindReadManyBuffer(t *testing.T) {
	keys := []string{"x", "y"}
	cfg := Config{
		NC: 1, Inputs: vec.Of(1),
		CBody: func(i int) Body {
			return func(e Ops) {
				r := e.Bind(keys)
				r.Write(0, "vx")
				buf := make([]Value, 4)
				got := r.ReadMany(buf)
				if len(got) != 2 || got[0] != "vx" || &got[0] != &buf[0] {
					t.Errorf("large buffer not reused in place: %v", got)
				}
				own := r.ReadMany(nil)
				if len(own) != 2 || own[0] != "vx" || own[1] != nil {
					t.Errorf("nil buffer collect = %v", own)
				}
				r.Write(1, "vy")
				got = r.ReadMany(make([]Value, 1))
				if len(got) != 2 || &got[0] != &own[0] {
					t.Errorf("short buffer collect = %v, not into the handle's buffer", got)
				}
				if own[1] != "vy" {
					t.Errorf("the handle's buffer reads %v after the next collect, want it overwritten", own)
				}
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
	res := rt.Run(&StopWhenDecided{Inner: &RoundRobin{}})
	if err := DecidedAll(res); err != nil {
		t.Fatal(err)
	}
	if want := 2 + 3*len(keys) + 1; res.Steps != want { // two writes, three collects, the decision
		t.Fatalf("consumed %d steps, want %d (one per slot collected)", res.Steps, want)
	}
}

// TestBindPendingOps: bound operations park with the same PendingOp surface
// as their keyed equivalents, so schedule explorers see an identical
// independence structure.
func TestBindPendingOps(t *testing.T) {
	keys := []string{"x", "y"}
	cfg := Config{
		NC: 1, Inputs: vec.Of(1),
		CBody: func(i int) Body {
			return func(e Ops) {
				r := e.Bind(keys)
				r.WriteInt(1, 5)
				r.ReadMany(nil)
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
		{Kind: OpWrite, Key: "y"},
		{Kind: OpRead, Key: "x"},
		{Kind: OpRead, Key: "y"},
		{Kind: OpDecide},
	}
	if !reflect.DeepEqual(pendings, want) {
		t.Fatalf("pending ops = %+v, want %+v", pendings, want)
	}
}

// TestBindInterleavedWriteVisibility: a write scheduled between two reads of
// one bound collect must be visible to the later read and invisible to the
// earlier — regular-collect semantics, exactly as the keyed ReadMany.
func TestBindInterleavedWriteVisibility(t *testing.T) {
	keys := []string{"r/0", "r/1"}
	var got []Value
	cfg := Config{
		NC: 2, Inputs: vec.Of(1, 2),
		CBody: func(i int) Body {
			if i == 0 {
				return func(e Ops) {
					r := e.Bind(keys)
					got = r.ReadMany(nil)
					e.Decide(0)
				}
			}
			return func(e Ops) {
				r := e.Bind(keys)
				r.Write(0, "late")
				r.Write(1, "seen")
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
