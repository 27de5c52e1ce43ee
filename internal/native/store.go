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
// The table. A key hash selects one of its shards, each with its own mutex
// and map, so concurrent instances and processes contend only when their
// keys collide in a shard. Bound handles (sim.Regs) resolve their cells once,
// so the steady-state cost of a register is a few atomic accesses on one
// cache line with no lock at all.
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
// Reclamation. A register lives until a process releases its key
// (sim.Ops.Release: nobody will name the key again). Release takes the key
// out of its shard map, empties the cell and counts it back into the backing
// array it was minted from; an array whose minted cells have all been
// released — and whose bind has finished minting — is parked on a free list
// by length, and the next bind of that many keys mints from it instead of
// allocating. A long-lived system that names fresh keys for ever (a log of
// consensus instances) and releases the old ones therefore runs on a fixed
// set of arrays, and its maps churn at constant population.
//
// The interface decomposition is the one sync/atomic.Value relies on. It is
// confined to split and join below, the only uses of unsafe in the package:
// everything else handles the two words as opaque *byte, which the collector
// traces like any pointer (the data word keeps the caller's box alive; the
// type word points at a static descriptor).

// cellSize is the stride of the cells in one store.bind backing array: the
// hot words are 40 bytes and the pad puts the next cell's a full cache line
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
	// arr is the backing array the cell belongs to, set when the array is
	// made and never changed; release counts the cell back into it.
	arr *cellArray
	_   [cellSize - 48]byte
}

// cellArray is the backing array of the cells one bind mints, the unit of
// recycling.
type cellArray struct {
	cells []cell
	// live counts the cells minted from the array whose keys are still in
	// the table, plus one while the bind minting from it is under way. The
	// array is parked for reuse when it drops to zero: everything handed out
	// has been released and nothing more will be handed out.
	live atomic.Int32
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

// shardCap is the largest shard count: a power of two, like every shard
// count, so the hash folds with a mask. 32 shards keep per-shard collision
// odds low for the large key populations (a few thousand keys and up) at
// negligible fixed cost.
const shardCap = 32

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

	// free holds the recycled backing arrays by length. freeMu is taken by
	// binds and releases, never by a register operation, and nests inside a
	// shard lock, never around one.
	freeMu sync.Mutex
	free   map[int][]*cellArray
	// released is set by the table's first release and makes rearm decline.
	released atomic.Bool
}

// newStore builds a table for about hint registers: the smallest power-of-two
// shard count, up to shardCap, that leaves each shard at most keysPerShard
// of them, with the maps pre-sized to match. The hint comes from the
// scenario's known key shapes (`in/i`, `cons/j/*`, `cell/a/s/*` — see
// core.Scenario). A hint of zero or less means no estimate was given and
// builds shardCap shards: every keyed Read and Write takes its shard's mutex
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
		return shardCap
	}
	n := 1
	for n < shardCap && n*keysPerShard < hint {
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
// their number. It also declines once a key has been released: a handle
// bound before the release still points at the cell the key had then, which
// the table no longer maps and may have handed to another key, and a handle
// the caller memoised must not come back to life over it. Nothing else may be
// using the table.
func (s *store) rearm(hint int) bool {
	if len(s.shards) != shardsFor(hint) || s.released.Load() {
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

// mint is the backing array one lookup or bind call mints from: taken at the
// call's first miss, handed back by minted when the call is over.
type mint struct {
	arr      *cellArray
	used     int
	recycled bool // arr came off the free list
}

// lookup returns key's cell, minting it on first touch. Only the key's shard
// is locked. This is the keyed Read/Write path: one shard lookup per call.
func (s *store) lookup(key string) *cell {
	var mt mint
	c := s.resolve(key, &mt, 1)
	s.minted(&mt)
	return c
}

// bind resolves keys[i] into cells[i] for a whole key table and reports
// whether it minted from a recycled array. The cells this call has to mint
// share one backing array of len(keys) cells, taken at the first miss — off
// the free list if a released table of that length is parked there — so the
// registers of a freshly bound table are one heap object at most; a table
// somebody else already minted costs lookups only.
func (s *store) bind(keys []string, cells []*cell) (recycled bool) {
	var mt mint
	for i, k := range keys {
		cells[i] = s.resolve(k, &mt, len(keys))
	}
	s.minted(&mt)
	return mt.recycled
}

// resolve returns key's cell, minting it from mt on first touch; a call's
// first miss takes mt's array, of want cells.
func (s *store) resolve(key string, mt *mint, want int) *cell {
	sh := s.shard(key)
	sh.mu.Lock()
	c := sh.m[key]
	if c == nil {
		if mt.arr == nil {
			mt.arr, mt.recycled = s.array(want)
		}
		c = &mt.arr.cells[mt.used]
		mt.used++
		mt.arr.live.Add(1)
		sh.m[key] = c
	}
	sh.mu.Unlock()
	return c
}

func (s *store) shard(key string) *shard {
	return &s.shards[keyHash(key)&uint32(len(s.shards)-1)]
}

// array returns a backing array of n empty cells holding its minter's count:
// a parked one if there is one, a new one otherwise.
func (s *store) array(n int) (a *cellArray, recycled bool) {
	s.freeMu.Lock()
	if l := s.free[n]; len(l) > 0 {
		a, s.free[n] = l[len(l)-1], l[:len(l)-1]
	}
	s.freeMu.Unlock()
	recycled = a != nil
	if !recycled {
		a = &cellArray{cells: make([]cell, n)}
		for i := range a.cells {
			a.cells[i].arr = a
		}
	}
	a.live.Store(1)
	return a, recycled
}

// minted ends a call's minting: the array it took, if any, gives up the
// minter's count.
func (s *store) minted(mt *mint) {
	if mt.arr != nil {
		s.unref(mt.arr)
	}
}

// unref drops one count of a and parks it when that was the last: its minted
// cells are all released, hence empty, and nobody is minting from it.
func (s *store) unref(a *cellArray) {
	if a.live.Add(-1) != 0 {
		return
	}
	s.freeMu.Lock()
	if s.free == nil {
		s.free = make(map[int][]*cellArray)
	}
	s.free[len(a.cells)] = append(s.free[len(a.cells)], a)
	s.freeMu.Unlock()
}

// release takes keys out of the table and reports how many it held. The
// caller vouches that no process will name them again (sim.Ops.Release), so
// each cell is emptied on the spot and counted back into its array; a key
// that is not there — never minted, or released by somebody else — is
// skipped.
func (s *store) release(keys []string) int {
	n := 0
	for _, k := range keys {
		sh := s.shard(k)
		sh.mu.Lock()
		c := sh.m[k]
		if c != nil {
			delete(sh.m, k)
		}
		sh.mu.Unlock()
		if c == nil {
			continue
		}
		n++
		c.reset()
		s.unref(c.arr)
	}
	if n > 0 && !s.released.Load() {
		s.released.Store(true)
	}
	return n
}
