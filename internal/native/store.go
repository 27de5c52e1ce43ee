package native

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"unsafe"

	"wfadvice/internal/obs"
	"wfadvice/internal/sim"
)

// This file is the native register representation: the cell (one register's
// storage) and the key→cell table that holds them.
//
// The table. One mutex guards one key map, the table registry and the one
// free list of backing arrays both draw their cells from. It is taken at
// setup only: a keyed bind resolves its whole key table under one hold, a
// table bind is one registry operation, and a release takes its keys or
// table back under one. Bound handles (sim.Regs) resolve their cells once,
// so the steady-state cost of a register is a few atomic accesses on one
// cache line with no lock at all; only the keyed Read and Write, which no
// body calls, take the mutex per operation.
//
// The cell. A register holds one of three representations, named by its
// mode word, and each representation has exactly one atomic word of truth:
//
//   - modeInt (the zero value): an int fitting 63 bits sits in packed,
//     encoded (x<<1)|1 — a write is one atomic store and no allocation.
//     packed == 0 is the register nobody has written, which reads nil.
//   - modeTyped: the register's first write was a non-int value. Its
//     interface type word is recorded once in typ (CAS from nil, never
//     changed again), and from then on a write of that type is one atomic
//     store into data of the interface's data word — the pointer to the
//     boxed copy the caller's conversion to sim.Value already made, which
//     nobody can mutate. A write costs no object of the cell's own.
//   - modeGeneral: anything goes, behind box, a pointer to a heap-boxed
//     sim.Value — one 16-byte object per write. A cell lands here when it
//     sees what the other two cannot hold: a second dynamic type (an int
//     into a typed cell, a struct into an int cell), an untyped nil, a typed
//     nil pointer (its data word is nil, which data reserves for "not yet
//     stored"), or an int needing all 64 bits.
//
// The mode only ever moves toward modeGeneral (int → typed → general, or
// int → general), a writer stores into the word of the mode it loaded, and a
// reader reads the word of the mode it loaded. A flip is: store the value
// into the new mode's word, then move mode. That makes the register
// linearizable for any mix of writers:
//
//   - An access to a mode's word while that mode is current linearizes at
//     the access; the flip linearizes the last store its new word received
//     before it, at the flip.
//   - A writer that loaded an older mode and stores after the flip (a stale
//     write) hits a word no later reader consults. Its interval contains the
//     flip, so it linearizes just before it; so do the stores the new word
//     received before the flip and that were overwritten there, and so does
//     a stale reader, which loaded the old mode before the flip and may see
//     such a stale write. All of them overlap the flip and hence each other,
//     so ordering them by their access to the old word contradicts no
//     real-time order.
//   - A reader that has seen a newer mode never sees an older word again,
//     so no process reads X, then Y, then X where each was written once.
//
// TestCellLinearizable races every pairing of writer kinds against that
// last property; TestCellFirstWriteRace races the first write.
//
// Arrays. Registers are allocated in backing arrays (regArray), one kind for
// both paths: the cells one keyed bind mints share one array of its key
// table's length, and a table bound by identity is one array. A new array is
// cut from a block of arrays of its length (carve), made as two objects (the
// arrays and their cells) and doubling up to blockMax arrays a block.
//
// Tables. A table bound by identity (sim.Tables: a paxos.Log window's space,
// family, window number and length) has no keys in the map. The registry is
// a second map, from a table's space, family and window to its backing
// array: binding a window is one registry lookup under the mutex, and the
// first process to bind it takes the array that becomes the window's cells.
// The handle a process gets is its view of that array, kept in the array: a
// window costs its cells, a share of two objects per block, its registry
// entry and nothing per process that binds it, which is what a window pinned
// by a crashed replica costs for good, however far the other windows move on
// from it. A space is reached one way only: once a table is bound in it,
// minting a key in it panics, and binding the first table of a space that
// already holds keys panics too (see sim.Ops). Both checks run under the
// mutex, so of a key minted and a first table bound in one space, whichever
// comes second panics.
//
// Reclamation. A register lives until a process releases its key
// (sim.Ops.Release: nobody will name the key again) or its table. Release
// takes the key out of the map, empties the cell and counts it back into the
// array it was minted from, which is parked once all its minted cells are
// back; releasing a table takes its array out of the registry, empties it
// and parks it at once, views included; a key or table already gone is
// skipped. Both park on one free list by length, and a bind of either kind
// takes the latest array of its length parked there before it carves one
// (take), whichever kind of bind the array served before. Neither a parked
// array nor a block is ever given back to the heap: a block lives as long as
// the store, however many of its arrays are bound. A long-lived system that
// names fresh windows for ever (a log of consensus instances) and releases
// the old ones therefore runs on a fixed set of arrays, with the same views
// in the same arrays if it binds tables, and on a map that churns at
// constant population either way: the registry, or the key map.
//
// The interface decomposition is the one sync/atomic.Value relies on. It is
// confined to split and join below, the only uses of unsafe in the package:
// everything else handles the two words as opaque *byte, which the collector
// traces like any pointer (the data word keeps the caller's box alive; the
// type word points at a static descriptor).

// cellSize is the stride of the cells in one backing array: the hot words
// are 40 bytes and the pad puts the next cell's a full cache line past them,
// so neighbouring registers never false-share (TestCellStride). The
// allocator starts the cells of a block that arrays are cut from on a
// 64-byte boundary, or 8 bytes past one behind its malloc header (a block
// past 32 KB has none and starts on a page), so a cell's hot words also
// share one line.
const cellSize = 128

// cell is one shared register; see the file comment for the representation.
type cell struct {
	mode   atomic.Uint32
	packed atomic.Uint64
	typ    atomic.Pointer[byte]
	data   atomic.Pointer[byte]
	box    atomic.Pointer[sim.Value]
	// arr is the backing array the cell belongs to, set when the array is
	// carved and never changed; a keyed release counts the cell back into it.
	arr *regArray
	_   [cellSize - 48]byte
}

// regArray is a backing array of registers, the unit of allocation and
// recycling on both paths: the cells one keyed bind mints, or one table
// bound by identity, with the views of it the processes that bound it as a
// table hold (sim.Regs handles on its cells). A view is claimed the first
// time a process binds the array as a table and stays that process's for
// the array's life, across every table the array serves, so binding a table
// allocates and fills nothing once its array exists; the first inlineViews
// views live in the array's own struct.
type regArray struct {
	cells []cell
	// live counts the cells a keyed bind minted from the array whose keys
	// are still in the map, under the store's mutex. The array is parked
	// when it drops to zero: everything handed out has been released.
	// Nothing is released while a bind mints, so live is also that bind's
	// next cell. A table's array keeps zero: it goes back with its table.
	live  int
	views [inlineViews]tableRegs
	more  []*tableRegs // the views past inlineViews, claimed in order
}

// inlineViews is how many processes' views an array holds in its own
// struct: a kv log's three replicas, and a fourth. A fifth and later binder
// costs its view one object, once per array.
const inlineViews = 4

// view returns e's view of the array, claiming one the first time e binds
// it; the caller holds the store's mutex, which guards the claims. Inline
// views are claimed in order and never given up, so the first free one means
// no process has a view past it.
func (a *regArray) view(e *Env) *tableRegs {
	for i := range a.views {
		v := &a.views[i]
		if v.e == nil {
			v.e, v.cells = e, a.cells
		}
		if v.e == e {
			return v
		}
	}
	for _, v := range a.more {
		if v.e == e {
			return v
		}
	}
	v := &tableRegs{e: e, cells: a.cells}
	a.more = append(a.more, v)
	return v
}

// reset empties every cell of the array.
func (a *regArray) reset() {
	for i := range a.cells {
		a.cells[i].reset()
	}
}

const (
	modeInt uint32 = iota
	modeTyped
	modeGeneral
)

// eface is the runtime's layout of an interface value.
type eface struct{ typ, data *byte }

// split returns the type word and the data word of v.
func split(v sim.Value) (typ, data *byte) {
	e := (*eface)(unsafe.Pointer(&v))
	return e.typ, e.data
}

// join rebuilds the interface value split took apart.
func join(typ, data *byte) (v sim.Value) {
	e := (*eface)(unsafe.Pointer(&v))
	e.typ, e.data = typ, data
	return v
}

// packInt encodes x for packed storage; ok is false when x needs all 64
// bits and must take the general box.
func packInt(x int) (uint64, bool) {
	if (x<<1)>>1 != x {
		return 0, false
	}
	return uint64(x)<<1 | 1, true
}

// reset returns the cell to the register nobody has written. A re-arm calls
// it between two runs, when no process exists to race it, and release calls
// it on a cell no process will touch again.
func (c *cell) reset() {
	c.mode.Store(modeInt)
	c.packed.Store(0)
	c.typ.Store(nil)
	c.data.Store(nil)
	c.box.Store(nil)
}

// load returns the cell's current value through the generic surface.
func (c *cell) load() sim.Value {
	switch c.mode.Load() {
	case modeInt:
		u := c.packed.Load()
		if u == 0 {
			return nil
		}
		// Go boxes 0..255 statically; a larger int costs the reader one
		// box, which ReadInt avoids.
		return int(int64(u) >> 1)
	case modeTyped:
		return join(c.typ.Load(), c.data.Load())
	}
	return *c.box.Load()
}

// loadInt returns the cell's current value unboxed if it is an int. A typed
// cell never holds one: ints are packed or, past 63 bits, general.
func (c *cell) loadInt() (int, bool) {
	switch c.mode.Load() {
	case modeInt:
		u := c.packed.Load()
		return int(int64(u) >> 1), u != 0
	case modeGeneral:
		x, ok := (*c.box.Load()).(int)
		return x, ok
	}
	return 0, false
}

// store writes v through the generic surface: an int as storeInt does, the
// data word alone for the type a typed cell was claimed for, the general box
// for everything else (which keeps the caller's box of v). m is the caller's
// metrics stripe, for the slow-path counters; it is passed by address, here
// and below, so that the paths that count nothing do not load it either.
func (c *cell) store(v sim.Value, m *obs.Handle) {
	mode := c.mode.Load()
	if x, ok := v.(int); ok {
		if u, ok := packInt(x); ok && mode == modeInt {
			c.packed.Store(u)
			return
		}
	} else if typ, data := split(v); typ != nil && data != nil && c.storeTyped(mode, typ, data) {
		m.Inc(cCellBoxedStore)
		return
	}
	c.generalise(v, m)
}

// storeTyped stores the data word of a non-nil value of dynamic type typ if
// the cell is typed on typ or can still become so: nobody has written an int
// yet and the type word is free or already typ. The flip to typed loses only
// to a racing generalise, which makes this a stale write.
func (c *cell) storeTyped(mode uint32, typ, data *byte) bool {
	switch {
	case mode == modeTyped && c.typ.Load() == typ:
		c.data.Store(data)
	case mode == modeInt && c.packed.Load() == 0 &&
		(c.typ.CompareAndSwap(nil, typ) || c.typ.Load() == typ):
		c.data.Store(data)
		c.mode.CompareAndSwap(modeInt, modeTyped)
	default:
		return false
	}
	return true
}

// storeInt writes x unboxed: one atomic store, no allocation, for every int
// that fits 63 bits while the cell is in int mode.
func (c *cell) storeInt(x int, m *obs.Handle) {
	if u, ok := packInt(x); ok && c.mode.Load() == modeInt {
		c.packed.Store(u)
		return
	}
	c.generalise(x, m)
}

// generalise stores v in the general box and makes sure the cell is in
// general mode, for good.
func (c *cell) generalise(v sim.Value, m *obs.Handle) {
	m.Inc(cCellBoxedStore)
	p := new(sim.Value)
	*p = v
	c.box.Store(p)
	if c.mode.Load() != modeGeneral && c.mode.Swap(modeGeneral) != modeGeneral {
		m.Inc(cCellGeneralised)
	}
}

// store is the register table; see the file comment.
type store struct {
	// mu guards the fields below it but base: the key map, the table
	// registry, the arrays parked and the blocks carved, spaces and released.
	mu sync.Mutex
	m  map[string]*cell
	// tables is the registry: the backing array of every bound table, by
	// its identity.
	tables map[tableID]*regArray
	// free parks by length the arrays all of whose registers have been
	// released, keyed or table, for the next bind of that length (take).
	free map[int][]*regArray
	// blocks holds, by length, the arrays of the last block carved that
	// nobody has taken yet; take cuts them only when free has none.
	blocks map[int]*arrayBlock
	// spaces lists the Table.Space of every table bound so far, for the
	// keyed path to refuse their keys.
	spaces []string
	// released is set by the table's first release and makes rearm decline.
	released bool
	// base is the number of registers the table held when it was first
	// re-armed, zero until then: what one run of the caller's keys
	// measured, and what rearm bounds the table by.
	base int
}

// newStore builds a table for about hint registers, its map pre-sized to
// hold them; zero or less means no estimate. A hint only pre-sizes: one that
// is too low costs map growth, never correctness.
func newStore(hint int) *store {
	return &store{m: make(map[string]*cell, max(hint, 0))}
}

// retainedFloor is the least number of registers a retained table may hold
// whatever its first run measured, so that a run of a handful of keys does
// not have a runtime rebuild its table at every re-arm.
const retainedFloor = 64

// rearm makes the table ready for another run without rebuilding it, and
// reports whether it could: every register it holds is emptied in place and
// keeps its key, so a bound handle resolved against the table stays valid.
// The first call that finds registers in the table measures it: base is
// what that run left in it.
// It declines, and the caller builds a new table, when the table holds more
// than twice base (at least retainedFloor): keys are the caller's to name,
// per instance if it likes, and a table kept across instances must not grow
// with their number. It also declines once a key has been released: a handle
// bound before the release still points at the cell the key had then, which
// the table no longer maps and may have handed to another key, and a handle
// the caller memoised must not come back to life over it. Nothing else may
// be using the table.
func (s *store) rearm() bool {
	if s.base == 0 {
		s.base = s.held()
	}
	if s.released || s.held() > max(2*s.base, retainedFloor) {
		return false
	}
	for _, c := range s.m {
		c.reset()
	}
	for _, a := range s.tables {
		a.reset()
	}
	return true
}

// held is the number of registers in the table. Like rearm it is for the
// time between two runs.
func (s *store) held() int {
	n := len(s.m)
	for _, a := range s.tables {
		n += len(a.cells)
	}
	return n
}

// lookup returns key's cell, minting it on first touch. This is the keyed
// Read/Write path: one hold of the mutex per call.
func (s *store) lookup(key string) *cell {
	var c [1]*cell
	s.bind([]string{key}, c[:])
	return c[0]
}

// bind resolves keys[i] into cells[i] for a whole key table under one hold
// of the mutex, and reports whether it minted from a recycled array. The
// cells it has to mint share one backing array of len(keys) cells, taken at
// the first miss (take), so a freshly bound key table costs at most a share
// of its length's block; a table somebody else already minted costs lookups
// only. A key in a space whose tables are bound by identity panics.
func (s *store) bind(keys []string, cells []*cell) (recycled bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var a *regArray
	for i, k := range keys {
		c := s.m[k]
		if c == nil {
			for _, space := range s.spaces {
				if inSpace(k, space) {
					panic(fmt.Sprintf("native: register %q named by key in space %q, whose tables are bound by identity", k, space))
				}
			}
			if a == nil {
				a, recycled = s.take(len(keys))
			}
			c = &a.cells[a.live]
			a.live++
			s.m[k] = c
		}
		cells[i] = c
	}
	return recycled
}

// release takes keys out of the table and reports how many it held. The
// caller vouches that no process will name them again (sim.Ops.Release), so
// each cell is emptied on the spot and counted back into its array, which
// is parked once all its minted cells are back; a key that is not there —
// never minted, or released by somebody else — is skipped.
func (s *store) release(keys []string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, k := range keys {
		c := s.m[k]
		if c == nil {
			continue
		}
		delete(s.m, k)
		n++
		c.reset()
		c.arr.live--
		if c.arr.live == 0 {
			s.park(c.arr)
		}
	}
	s.released = s.released || n > 0
	return n
}

// tableID names one table in the registry.
type tableID struct {
	space, family string
	window        int
}

// inSpace reports whether key lies in a table space: it starts with space, a
// slash and a digit, as a log's slot keys do.
func inSpace(key, space string) bool {
	n := len(space)
	return len(key) > n+1 && key[n] == '/' && key[n+1] >= '0' && key[n+1] <= '9' && key[:n] == space
}

// bindTable returns e's view of table t, and reports whether the table's
// array was recycled: the array filed under t, or one of t.Len cells taken
// for t if nobody has bound it yet (take). The first table of a space claims
// the space (claim).
func (s *store) bindTable(t sim.Table, e *Env) (v *tableRegs, recycled bool) {
	id := tableID{t.Space, t.Family, t.Window}
	s.mu.Lock()
	defer s.mu.Unlock()
	a := s.tables[id]
	if a == nil {
		s.claim(t)
		a, recycled = s.take(t.Len)
		if s.tables == nil {
			s.tables = make(map[tableID]*regArray)
		}
		s.tables[id] = a
	}
	if len(a.cells) != t.Len {
		panic(fmt.Sprintf("native: table %s/%s window %d bound with %d registers, and before with %d", t.Space, t.Family, t.Window, t.Len, len(a.cells)))
	}
	return a.view(e), recycled
}

// take returns an array of n empty cells, none of them minted, and reports
// whether it was recycled: the latest array of that length parked, or a new
// one carved. The caller holds mu.
func (s *store) take(n int) (a *regArray, recycled bool) {
	if l := s.free[n]; len(l) > 0 {
		a, s.free[n] = l[len(l)-1], l[:len(l)-1]
		return a, true
	}
	return s.carve(n), false
}

// park files a, whose registers have all been released and emptied, for the
// next take of its length. The caller holds mu.
func (s *store) park(a *regArray) {
	if s.free == nil {
		s.free = make(map[int][]*regArray)
	}
	s.free[len(a.cells)] = append(s.free[len(a.cells)], a)
}

// blockMax is the most arrays one block holds. A length's blocks double
// from one array up to it, so a store that binds a handful of tables of a
// length pays for no more than it binds, and one that pins windows for good
// pays two objects per blockMax of them.
const blockMax = 16

// arrayBlock is what is left of the last block carved for one length: the
// arrays nobody has taken yet and the cells they will get, and how many
// arrays the next block holds.
type arrayBlock struct {
	arrays []regArray
	cells  []cell
	next   int
}

// carve returns a new array of n cells, cut from the block of that length,
// and makes the next block when that one is used up: one regArray slice and
// one cell slice, whose cells keep cellSize's stride and line. An array is
// capped at its own cells, and each of its cells points back at it. The
// caller holds mu.
func (s *store) carve(n int) *regArray {
	b := s.blocks[n]
	if b == nil {
		if s.blocks == nil {
			s.blocks = make(map[int]*arrayBlock)
		}
		b = &arrayBlock{next: 1}
		s.blocks[n] = b
	}
	if len(b.arrays) == 0 {
		b.arrays, b.cells = make([]regArray, b.next), make([]cell, b.next*n)
		b.next = min(2*b.next, blockMax)
	}
	a := &b.arrays[0]
	a.cells = b.cells[:n:n]
	for i := range a.cells {
		a.cells[i].arr = a
	}
	b.arrays, b.cells = b.arrays[1:], b.cells[n:]
	return a
}

// claim registers t's space if t is its first table; the caller holds mu. A
// space that already holds a key panics.
func (s *store) claim(t sim.Table) {
	if slices.Contains(s.spaces, t.Space) {
		return
	}
	for k := range s.m {
		if inSpace(k, t.Space) {
			panic(fmt.Sprintf("native: table %s/%s bound by identity in a space that holds key %q", t.Space, t.Family, k))
		}
	}
	s.spaces = append(s.spaces, t.Space)
}

// releaseTable takes table t out of the registry and reports how many
// registers it held: its cells are emptied and its array parked for the next
// bind of that length. A table nobody bound, or somebody already released,
// is skipped.
func (s *store) releaseTable(t sim.Table) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	id := tableID{t.Space, t.Family, t.Window}
	a := s.tables[id]
	if a == nil {
		return 0
	}
	delete(s.tables, id)
	a.reset()
	s.park(a)
	s.released = true
	return len(a.cells)
}
