package native

import (
	"sync"
	"sync/atomic"
	"unsafe"

	"wfadvice/internal/obs"
	"wfadvice/internal/sim"
)

// This file is the native register representation: the cell (one register's
// storage) and the sharded key→cell table that holds them.
//
// The table. Shards are selected by a key hash, each with its own mutex and
// map, so concurrent instances and processes contend only when their keys
// collide in a shard. Bound handles (sim.Regs) resolve their cells once, so
// the steady-state cost of a register is a few atomic accesses on one cache
// line with no lock at all.
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
// The interface decomposition is the one sync/atomic.Value relies on. It is
// confined to split and join below, the only uses of unsafe in the package:
// everything else handles the two words as opaque *byte, which the collector
// traces like any pointer (the data word keeps the caller's box alive; the
// type word points at a static descriptor).

// cellSize is the stride of the cells in one store.bind backing array: the
// hot words are 48 bytes and the pad puts the next cell's a full cache line
// past them, so neighbouring registers never false-share (TestCellStride).
// The allocator starts such an array on a 64-byte boundary, or 8 bytes past
// one behind its malloc header, so a cell's hot words also share one line.
const cellSize = 128

// cell is one shared register; see the file comment for the representation.
type cell struct {
	mode   atomic.Uint32
	packed atomic.Uint64
	typ    atomic.Pointer[byte]
	data   atomic.Pointer[byte]
	box    atomic.Pointer[sim.Value]
	// memo is the boxed form of the packed value. Reading a packed cell
	// through the any-typed surface would re-box the int on every load; with
	// the memo a poll loop re-reading an unchanged register allocates
	// nothing, and a generic write of a changed int pays one memo refresh.
	// The typed ReadInt/WriteInt path never touches it.
	memo atomic.Pointer[intBox]
	_    [cellSize - 48]byte
}

const (
	modeInt uint32 = iota
	modeTyped
	modeGeneral
)

// intBox memoizes the boxed form of one packed value. Instances are
// immutable once published; readers validate u against the packed word they
// loaded, so a stale memo costs a fresh boxing, never a wrong value.
type intBox struct {
	u uint64
	v sim.Value
}

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

// smallPacked is the exclusive upper bound of packed words whose ints the
// Go runtime boxes statically (0..255 via its static box table): loads
// below it re-box for free, so they skip the memo entirely.
const smallPacked = 256<<1 | 1

// reset returns the cell to the register nobody has written. Only a re-arm
// calls it, between two runs, when no process exists to race it.
func (c *cell) reset() {
	c.mode.Store(modeInt)
	c.packed.Store(0)
	c.typ.Store(nil)
	c.data.Store(nil)
	c.box.Store(nil)
	c.memo.Store(nil)
}

// load returns the cell's current value through the generic surface. m is
// the caller's metrics stripe, for the slow-path counters; it is passed by
// address, here and below, so that the paths that count nothing do not load
// it either.
func (c *cell) load(m *obs.Handle) sim.Value {
	switch c.mode.Load() {
	case modeInt:
		u := c.packed.Load()
		if u == 0 {
			return nil
		}
		if u < smallPacked {
			return int(u >> 1) // static box, no heap, no memo
		}
		if b := c.memo.Load(); b != nil && b.u == u {
			return b.v
		}
		// Memo miss: the value was stored through the typed path (which
		// leaves the memo alone) or this load raced a concurrent writer. Box
		// it once and publish the memo so subsequent generic reads of the
		// unchanged value are free again.
		m.Inc(cCellMemoMiss)
		b := &intBox{u: u, v: int(int64(u) >> 1)}
		c.memo.Store(b)
		return b.v
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

// store writes v through the generic surface: packed for fitting ints (the
// memo is refreshed only when the value actually changed, so re-writing the
// same value allocates nothing), the data word alone for the type a typed
// cell was claimed for, the general box for everything else.
func (c *cell) store(v sim.Value, m *obs.Handle) {
	mode := c.mode.Load()
	if x, ok := v.(int); ok {
		if u, ok := packInt(x); ok && mode == modeInt {
			if u >= smallPacked { // small ints re-box statically on load
				if b := c.memo.Load(); b == nil || b.u != u {
					c.memo.Store(&intBox{u: u, v: v})
				}
			}
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
// that fits 63 bits while the cell is in int mode. The memo is deliberately
// left alone — refreshing it would cost the allocation this path exists to
// avoid; a later generic load re-boxes on demand.
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

// storeShards is the largest shard count: a power of two, like every shard
// count, so the hash folds with a mask. 32 shards keep per-shard collision
// odds low for the large key populations (a few thousand keys and up) at
// negligible fixed cost.
const storeShards = 32

// keysPerShard is the population a shard is sized for before the table takes
// another: a run of a handful of registers gets one shard and one small map,
// not 32 maps it will leave empty.
const keysPerShard = 8

// shard is one slice of the table. The padding keeps each shard's mutex on
// its own cache line so uncorrelated shards never false-share.
type shard struct {
	_  pad
	mu sync.Mutex
	m  map[string]*cell
}

// store is the sharded register table.
type store struct {
	shards []shard // a power of two of them, so a hash folds with a mask
}

// newStore builds a table for about hint registers: the smallest power-of-two
// shard count, up to storeShards, that leaves each shard at most keysPerShard
// of them, with the maps pre-sized to match. The hint comes from the
// scenario's known key shapes (`in/i`, `cons/j/*`, `cell/a/s/*` — see
// core.Scenario). A hint of zero or less means no estimate was given and
// builds storeShards: every keyed Read and Write takes its shard's mutex
// (only bound handles skip the table), so a table that does not know its
// population must not put all of it behind one lock. A positive hint that is
// too low costs that contention and map growth, never correctness.
func newStore(hint int) *store {
	n := shardsFor(hint)
	s := &store{shards: make([]shard, n)}
	per := max(hint/n, 4)
	for i := range s.shards {
		s.shards[i].m = make(map[string]*cell, per)
	}
	return s
}

// shardsFor is the shard count newStore gives a table for hint registers.
func shardsFor(hint int) int {
	if hint <= 0 {
		return storeShards
	}
	n := 1
	for n < storeShards && n*keysPerShard < hint {
		n *= 2
	}
	return n
}

// retainedFloor is the least number of registers a retained table may hold
// whatever the hint says, so that a small or absent estimate does not have a
// runtime rebuild its table at every re-arm.
const retainedFloor = 64

// rearm makes the table ready for a run of about hint registers without
// rebuilding it, and reports whether it could: every register it holds is
// emptied in place and keeps its key, so a bound handle resolved against the
// table stays valid. It declines, and the caller builds a new table, when the
// table was sized for a different hint or holds more than twice the hint's
// registers (at least retainedFloor): keys are the caller's to name, per
// instance if it likes, and a table kept across instances must not grow with
// their number. Nothing else may be using the table.
func (s *store) rearm(hint int) bool {
	if len(s.shards) != shardsFor(hint) {
		return false
	}
	if s.held() > max(2*hint, retainedFloor) {
		return false
	}
	for i := range s.shards {
		for _, c := range s.shards[i].m {
			c.reset()
		}
	}
	return true
}

// held is the number of registers in the table. Like rearm it is for the
// time between two runs.
func (s *store) held() int {
	n := 0
	for i := range s.shards {
		n += len(s.shards[i].m)
	}
	return n
}

// keyHash hashes a register key (FNV-1a, high bits folded in so that a shard
// mask does not discard them); a store masks it down to a shard index.
func keyHash(key string) uint32 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	return uint32(h ^ (h >> 32))
}

// lookup returns key's cell, minting it on first touch. Only the key's shard
// is locked. This is the keyed Read/Write path: one shard lookup per call.
func (s *store) lookup(key string) *cell {
	var fresh []cell
	return s.resolve(key, &fresh, 1)
}

// bind resolves keys[i] into cells[i] for a whole key table. The cells this
// call has to mint share one backing array, allocated at the first miss and
// sized for the keys still to come, so the registers of a freshly bound
// table are one heap object; a table somebody else already minted costs
// lookups only.
func (s *store) bind(keys []string, cells []*cell) {
	var fresh []cell
	for i, k := range keys {
		cells[i] = s.resolve(k, &fresh, len(keys)-i)
	}
}

// resolve returns key's cell, minting it from *fresh on first touch; an
// empty *fresh is replaced by a new array of want cells first.
func (s *store) resolve(key string, fresh *[]cell, want int) *cell {
	sh := &s.shards[keyHash(key)&uint32(len(s.shards)-1)]
	sh.mu.Lock()
	c := sh.m[key]
	if c == nil {
		if len(*fresh) == 0 {
			*fresh = make([]cell, want)
		}
		c = &(*fresh)[0]
		*fresh = (*fresh)[1:]
		sh.m[key] = c
	}
	sh.mu.Unlock()
	return c
}
