package native

import (
	"sync"
	"sync/atomic"

	"wfadvice/internal/obs"
	"wfadvice/internal/sim"
)

// This file is the native register representation: the cell (one register's
// storage, with an unboxed fast path for integer values) and the sharded
// key→cell table that holds them. PR 3's single mutex-guarded map was the
// backend's first scaling wall (ROADMAP "sharded register tables"): every
// first touch of a key by any process serialized on one lock, and key-heavy
// solvers — the Theorem 9 machine mints a fresh cons instance per simulated
// step — hit it continuously. Shards are selected by a key hash, each with
// its own mutex and map, so concurrent instances and processes contend only
// when their keys collide in a shard; bound handles (sim.Regs) resolve their
// cells once, so the steady-state cost of a register is one atomic access
// with no lock at all.

// cell is one shared register, padded on both sides against false sharing
// with neighboring allocations. Values have two representations:
//
//   - packed: an int fitting 63 bits is stored directly in an atomic
//     uint64, encoded (x<<1)|1 — a write of such a value is one atomic
//     store with no allocation at all. Zero means "no packed value; see
//     boxed".
//   - boxed: any other value (structs, slices, nil, huge ints) is stored
//     behind an atomic pointer to a heap-boxed sim.Value, exactly the PR 3
//     representation — one allocation per written value.
//
// Reading a packed cell through the generic any-typed surface would re-box
// the int on every load, so the cell memoizes the boxed form of its packed
// value (memo): a poll loop re-reading an unchanged register hits the memo
// and allocates nothing, and a generic write of a changed int pays one memo
// allocation — the same count the old always-boxed representation paid —
// while the typed Regs.ReadInt/WriteInt path skips boxing entirely and is
// allocation-free for every int. The register stays atomic across the two
// representations: a writer publishes boxed before clearing packed, and a
// reader consults boxed only when it observed no packed value, so every
// read returns a value current at some instant within the read (see the
// linearization tests in store_test.go).
type cell struct {
	_      pad
	packed atomic.Uint64
	boxed  atomic.Pointer[sim.Value]
	memo   atomic.Pointer[intBox]
	// m is the owning store's metrics stripe, for the slow-path counters
	// (boxed stores, memo misses). Immutable after creation; the hot
	// packed paths never touch it.
	m obs.Handle
	_ pad
}

// intBox memoizes the boxed form of one packed value. Instances are
// immutable once published; readers validate u against the packed word they
// loaded, so a stale memo costs a fresh boxing, never a wrong value.
type intBox struct {
	u uint64
	v sim.Value
}

// packInt encodes x for packed storage; ok is false when x needs all 64
// bits and must take the boxed path.
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

// load returns the cell's current value through the generic surface.
func (c *cell) load() sim.Value {
	if u := c.packed.Load(); u != 0 {
		if u < smallPacked {
			return int(u >> 1) // static box, no heap, no memo
		}
		if b := c.memo.Load(); b != nil && b.u == u {
			return b.v
		}
		// Memo miss: the value was stored through the typed path (which
		// leaves the memo alone) or this load raced a concurrent writer.
		// Box it once and publish the memo so subsequent generic reads of
		// the unchanged value are free again.
		c.m.Inc(cCellMemoMiss)
		b := &intBox{u: u, v: int(int64(u) >> 1)}
		c.memo.Store(b)
		return b.v
	}
	if p := c.boxed.Load(); p != nil {
		return *p
	}
	return nil
}

// loadInt returns the cell's current value unboxed if it is an int.
func (c *cell) loadInt() (int, bool) {
	if u := c.packed.Load(); u != 0 {
		return int(int64(u) >> 1), true
	}
	if p := c.boxed.Load(); p != nil {
		x, ok := (*p).(int)
		return x, ok
	}
	return 0, false
}

// store writes v through the generic surface: packed for fitting ints (the
// memo is refreshed only when the value actually changed, so re-writing the
// same value allocates nothing), boxed for everything else.
func (c *cell) store(v sim.Value) {
	if x, ok := v.(int); ok {
		if u, ok := packInt(x); ok {
			if u >= smallPacked { // small ints re-box statically on load
				if b := c.memo.Load(); b == nil || b.u != u {
					c.memo.Store(&intBox{u: u, v: v})
				}
			}
			c.packed.Store(u)
			return
		}
	}
	c.m.Inc(cCellBoxedStore)
	p := new(sim.Value)
	*p = v
	c.boxed.Store(p)
	c.packed.Store(0)
}

// storeInt writes x unboxed: one atomic store, no allocation, for every int
// that fits 63 bits (the overflowing remainder takes the boxed path). The
// memo is deliberately left alone — refreshing it would cost the allocation
// this path exists to avoid; a later generic load re-boxes on demand.
func (c *cell) storeInt(x int) {
	if u, ok := packInt(x); ok {
		c.packed.Store(u)
		return
	}
	c.m.Inc(cCellBoxedStore)
	p := new(sim.Value)
	*p = x
	c.boxed.Store(p)
	c.packed.Store(0)
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
	m      obs.Handle
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
	n := storeShards
	if hint > 0 {
		n = 1
		for n < storeShards && n*keysPerShard < hint {
			n *= 2
		}
	}
	s := &store{shards: make([]shard, n), m: newMetricsHandle()}
	per := max(hint/n, 4)
	for i := range s.shards {
		s.shards[i].m = make(map[string]*cell, per)
	}
	return s
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
		c.m = s.m
		sh.m[key] = c
	}
	sh.mu.Unlock()
	return c
}
