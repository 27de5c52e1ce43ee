package sim

import "testing"

type slabVal struct {
	A, B int
	S    string
}

// TestSlab: a slab's first chunk is one value's size class, and each next
// chunk twice the last up to SlabMax. Values share a chunk until it is full;
// One hands out the address of a copy and Many a copy capped at its own
// length, so appending to one never writes into the next, and a value that
// does not fit the chunk's tail starts a new chunk without touching what the
// old one handed out.
func TestSlab(t *testing.T) {
	var s Slab[slabVal]
	vs := []slabVal{{A: 0, B: 1}, {A: 1, B: 1}}
	first := s.One(vs[0])
	if cap(s.buf) != 1 {
		t.Fatalf("the first chunk holds %d values, want the one asked for", cap(s.buf))
	}
	for prev := cap(s.buf); prev < SlabMax; prev = cap(s.buf) {
		for len(s.buf) < cap(s.buf) {
			s.One(vs[1])
		}
		s.One(vs[1])
		if want := min(2*prev, SlabMax); cap(s.buf) < want || cap(s.buf) >= 2*want {
			t.Fatalf("a chunk after one of %d holds %d values, want about %d", prev, cap(s.buf), want)
		}
	}
	for len(s.buf) < cap(s.buf) {
		s.One(vs[0])
	}
	a := s.Many(vs)
	p := s.One(vs[1])
	b := s.Many(vs[:1])
	if len(a) != 2 || cap(a) != 2 || &a[0] != &s.buf[0] || p != &s.buf[2] || &b[0] != &s.buf[3] {
		t.Fatalf("values are not consecutive capped slices of one chunk: len %d cap %d", len(a), cap(a))
	}
	_ = append(a, slabVal{A: 2, B: 9})
	if *p != vs[1] || b[0] != vs[0] {
		t.Fatalf("appending to one value overwrote the next: %+v, %+v", *p, b[0])
	}
	for len(s.buf) < cap(s.buf)-1 {
		s.One(vs[0])
	}
	full := &s.buf[0]
	if c := s.Many(vs); &s.buf[0] == full || &c[0] != &s.buf[0] || cap(s.buf) < SlabMax {
		t.Fatal("a value that does not fit the chunk's tail did not start a full-grown chunk")
	}
	if q := s.One(vs[1]); q != &s.buf[2] || a[0] != vs[0] || *p != vs[1] || *first != vs[0] {
		t.Fatal("One did not continue the new chunk, or a new chunk moved an old value")
	}
	if n := testing.AllocsPerRun(100, func() { s.One(vs[0]) }); n > 0 {
		t.Errorf("One allocates %v objects a value, want one per chunk of %d values", n, SlabMax)
	}
}
