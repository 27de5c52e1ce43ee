package sim

import "slices"

// SlabMax is the least number of values in a full-grown slab chunk.
const SlabMax = 256

// Slab hands out copies of values in append-only chunks, so that a process
// publishing a value per operation — a register holding a pointer into its
// writer's slab — allocates once per chunk. A slab's first chunk holds what
// it is first asked for and each next one twice the last, up to SlabMax: a
// slab that hands out one value costs what the value's own box would, and
// one that hands out millions one object per SlabMax of them. Nothing handed
// out is ever written again — a full chunk is left to the values that point
// into it and a new one started — so a reader may keep what it was handed
// for as long as it likes, and publish it again as it is: a kv batch names
// the requests its leader read rather than copies of them. A slab belongs to
// one process and one run.
type Slab[T any] struct{ buf []T }

// One copies v into the slab and returns its address.
func (s *Slab[T]) One(v T) *T {
	s.reserve(1)
	s.buf = append(s.buf, v)
	return &s.buf[len(s.buf)-1]
}

// Many copies vs into the slab and returns the copy, capped at its own
// length so that no later append can write into it.
func (s *Slab[T]) Many(vs []T) []T {
	s.reserve(len(vs))
	n := len(s.buf)
	s.buf = append(s.buf, vs...)
	return s.buf[n:len(s.buf):len(s.buf)]
}

// reserve starts a new chunk unless the current one has room for n more
// values.
func (s *Slab[T]) reserve(n int) {
	if cap(s.buf)-len(s.buf) >= n {
		return
	}
	// Grow, unlike make, fills the allocator's size class, so a value costs
	// no more bytes than its own box would.
	s.buf = slices.Grow([]T(nil), max(min(2*cap(s.buf), SlabMax), n))
}
