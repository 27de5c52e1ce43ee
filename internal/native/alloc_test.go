package native_test

import (
	"testing"
	"time"

	"wfadvice/internal/fdet"
	"wfadvice/internal/native"
	"wfadvice/internal/sim"
	"wfadvice/internal/vec"
)

// TestReadWriteAllocs is the zero-allocation guard on the bound-handle hot
// path: testing.AllocsPerRun over bound reads, writes and collects must
// report exactly zero for typed int traffic, small ints and reused buffers.
// The measurements run inside the process body (the only place the handle
// exists); the runtime is configured with no S-processes and no history, so
// nothing is published and no other goroutine allocates during the
// measurement window.
//
// What is asserted, and why it is the honest set:
//
//   - typed ops (WriteInt/ReadInt): zero for every int, changing or not —
//     the packed-cell path never touches the heap.
//   - generic ops (Write/Read) of ints 0..255: zero, because the runtime
//     boxes those statically. A generic read of a larger int boxes it for
//     the caller, and a fresh generic write of one is boxed by the caller's
//     conversion to sim.Value; each is at most one object, bounded here.
//   - ReadMany into a reused buffer: zero while no slot holds an int past
//     255 (a collect loads each slot as Read does); so is ReadMany(nil) after
//     the handle's first collect built its own buffer.
//   - a fresh struct through Write/Read: one object for the write — the
//     caller's conversion to sim.Value boxes the struct, and a typed cell
//     stores that box's pointer, adding nothing of its own — and zero for
//     reading it back.
func TestReadWriteAllocs(t *testing.T) {
	type result struct {
		typedWrite, typedRead   float64
		smallWrite, smallRead   float64
		collect, ownCollect     float64
		bigRead, freshWrite     float64
		structWrite, structRead float64
	}
	type rec struct{ A, B int }
	var res result
	keys := []string{"a", "b", "c", "d", "e"}
	cfg := native.Config{
		NC: 1, Inputs: vec.Of(1),
		CBody: func(i int) sim.Body {
			return func(e sim.Ops) {
				r := e.Bind(keys)
				buf := make([]sim.Value, len(keys))

				res.smallWrite = testing.AllocsPerRun(200, func() { r.Write(1, 7) })
				res.smallRead = testing.AllocsPerRun(200, func() {
					if v := r.Read(1); v != 7 {
						t.Errorf("small read = %v, want 7", v)
					}
				})

				res.collect = testing.AllocsPerRun(200, func() {
					if got := r.ReadMany(buf); len(got) != len(keys) {
						t.Errorf("collect returned %d slots, want %d", len(got), len(keys))
					}
				})
				// AllocsPerRun's warm-up call is the handle's first collect,
				// the one that allocates its buffer.
				res.ownCollect = testing.AllocsPerRun(200, func() {
					if got := r.ReadMany(nil); len(got) != len(keys) {
						t.Errorf("collect returned %d slots, want %d", len(got), len(keys))
					}
				})

				x := 1 << 40 // far beyond the static-box range
				res.typedWrite = testing.AllocsPerRun(200, func() {
					x++
					r.WriteInt(0, x)
				})
				res.typedRead = testing.AllocsPerRun(200, func() {
					if v, ok := r.ReadInt(0); !ok || v != x {
						t.Errorf("typed read = (%d, %v), want (%d, true)", v, ok, x)
					}
				})
				res.bigRead = testing.AllocsPerRun(200, func() {
					if v := r.Read(0); v != x {
						t.Errorf("large generic read = %v, want %d", v, x)
					}
				})

				y := 1 << 41
				res.freshWrite = testing.AllocsPerRun(200, func() {
					y++
					r.Write(3, y)
				})

				z := 0
				res.structWrite = testing.AllocsPerRun(200, func() {
					z++
					r.Write(4, rec{z, -z})
				})
				res.structRead = testing.AllocsPerRun(200, func() {
					if v := r.Read(4); v != (rec{z, -z}) {
						t.Errorf("struct read = %v, want %v", v, rec{z, -z})
					}
				})

				e.Decide(0)
			}
		},
		Pattern: fdet.FailureFree(0),
	}
	rt, err := native.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r := rt.Run(time.Minute); r.Reason != native.ReasonAllDecided {
		t.Fatalf("run ended %v", r.Reason)
	}
	for name, got := range map[string]float64{
		"typed write":            res.typedWrite,
		"typed read":             res.typedRead,
		"small generic write":    res.smallWrite,
		"small generic read":     res.smallRead,
		"bound ReadMany collect": res.collect,
		"ReadMany(nil) collect":  res.ownCollect,
		"fresh struct read":      res.structRead,
	} {
		if got != 0 {
			t.Errorf("%s: %v allocs/op, want 0", name, got)
		}
	}
	for name, got := range map[string]float64{
		"large generic read":        res.bigRead,
		"fresh large generic write": res.freshWrite,
	} {
		if got > 1 {
			t.Errorf("%s: %v allocs/op, want ≤ 1 (one box of the int)", name, got)
		}
	}
	if res.structWrite != 1 {
		t.Errorf("fresh struct write: %v allocs/op, want 1 (the caller's boxing)", res.structWrite)
	}
}
