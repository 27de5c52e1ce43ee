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
// report exactly zero for int-valued traffic and reused buffers. The
// measurements run inside the process body (the only place the handle
// exists); the runtime is configured with no S-processes and no history, so
// nothing is published and no other goroutine allocates during the
// measurement window.
//
// What is asserted, and why it is the honest set:
//
//   - typed ops (WriteInt/ReadInt): zero for every int, changing or not —
//     the packed-cell path never touches the heap.
//   - generic ops (Write/Read): zero for small ints (the runtime boxes
//     0..255 statically) and for repeated writes/reads of an unchanged
//     value of any magnitude (the cell memo absorbs the re-boxing). A
//     generic write of a fresh large int pays the unavoidable caller-side
//     interface boxing plus one memo refresh; that pair is measured and
//     bounded here rather than asserted to be zero.
//   - ReadMany into a reused buffer: zero regardless of slot contents.
//   - a fresh struct through Write/Read: one object for the write — the
//     caller's conversion to sim.Value boxes the struct, and a typed cell
//     stores that box's pointer, adding nothing of its own — and zero for
//     reading it back.
func TestReadWriteAllocs(t *testing.T) {
	type result struct {
		typedWrite, typedRead   float64
		smallWrite, smallRead   float64
		stableWrite, stableRead float64
		collect                 float64
		freshWrite              float64
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

				x := 1 << 40 // far beyond the static-box range
				res.typedWrite = testing.AllocsPerRun(200, func() {
					x++
					r.WriteInt(0, x)
				})
				res.typedRead = testing.AllocsPerRun(200, func() {
					if v, ok := r.ReadInt(0); !ok || v == 0 {
						t.Error("typed read lost the packed value")
					}
				})

				res.smallWrite = testing.AllocsPerRun(200, func() { r.Write(1, 7) })
				res.smallRead = testing.AllocsPerRun(200, func() {
					if v := r.Read(1); v != 7 {
						t.Errorf("small read = %v, want 7", v)
					}
				})

				var big sim.Value = 9_000_000_000 // boxed once, here
				res.stableWrite = testing.AllocsPerRun(200, func() { r.Write(2, big) })
				res.stableRead = testing.AllocsPerRun(200, func() {
					if v := r.Read(2); v != big {
						t.Errorf("stable read = %v, want %v", v, big)
					}
				})

				res.collect = testing.AllocsPerRun(200, func() {
					if got := r.ReadMany(buf); len(got) != len(keys) {
						t.Errorf("collect returned %d slots, want %d", len(got), len(keys))
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
		"stable generic write":   res.stableWrite,
		"stable generic read":    res.stableRead,
		"bound ReadMany collect": res.collect,
		"fresh struct read":      res.structRead,
	} {
		if got != 0 {
			t.Errorf("%s: %v allocs/op, want 0", name, got)
		}
	}
	// A fresh large int through the generic surface costs the caller-side
	// interface box plus one memo refresh — two small allocations, bounded
	// so a representation regression (e.g. re-boxing on every read again)
	// fails loudly.
	if res.freshWrite > 2 {
		t.Errorf("fresh large generic write: %v allocs/op, want ≤ 2", res.freshWrite)
	}
	if res.structWrite != 1 {
		t.Errorf("fresh struct write: %v allocs/op, want 1 (the caller's boxing)", res.structWrite)
	}
}
