package native

import "wfadvice/internal/sim"

// This file is the native implementation of sim.Regs, the bound-register
// handle behind the backend's allocation-free hot path. Ops.Bind resolves a
// body's key table to cell pointers exactly once; after that every bound
// operation is the operation prologue (step counting, stop/crash check)
// plus a direct atomic access on the resolved cell — no string hashing, no
// shard lock, no map lookup, and, for integer values and reused collect
// buffers, no allocation (asserted by TestReadWriteAllocs with
// testing.AllocsPerRun). Poll loops — the direct solver's decision sweeps,
// the S-process input harvest, auto.RunOnEnv collects, every paxos
// instance — run on bound handles.

// boundRegs is the native sim.Regs: a resolved cell pointer per slot, and
// the collect buffer ReadMany fills when the caller brings none. A handle the
// bind memo returns next run brings its buffer along, and so does one that
// Release hands to the process's next Bind.
type boundRegs struct {
	e     *Env
	keys  []string
	tab   sim.Table // the table bound by identity (BindTable); keys is nil then
	cells []*cell
	buf   []sim.Value
	// next links the handle into its Env's list of releasable handles, or
	// into its free list: linking allocates nothing.
	next *boundRegs
}

var (
	_ sim.Regs   = (*boundRegs)(nil)
	_ sim.Tables = (*Env)(nil)
)

// memoBinds is how many of a run's Binds, counted per process from its first,
// an Env remembers for the next run. A one-shot body binds its whole key set
// in its first two or three calls; a long-lived one that binds a fresh table
// per window of log slots is remembered for its first few and no further.
const memoBinds = 4

// Bind implements sim.Ops: it resolves every key to its register cell,
// straight through the sharded table (one shard lookup per key; the cells
// this call mints share one backing array, see store.bind), and returns the
// bound handle. Bind is the setup step: it runs once per body, per
// stand-alone consensus instance or per window of log slots, and the
// operations on the result do not allocate. Nor does Bind itself once the
// process has released, through its key slice, a table at least as long
// (see Release): it resolves keys into that table's handle and cells slice.
//
// On a re-armed runtime that kept its register table, a Bind of the table
// this process bound at the same call position last run — the same backing
// array and length; a body built once binds the tables it built then —
// returns last run's handle: its cells are the table's cells for those keys,
// emptied by the Reset, and nothing is resolved or allocated.
func (e *Env) Bind(keys []string) sim.Regs {
	pos := e.nbind
	e.nbind++
	if pos < memoBinds {
		if b := e.binds[pos]; b != nil && len(b.keys) == len(keys) && (len(keys) == 0 || &b.keys[0] == &keys[0]) {
			return b
		}
	}
	b := e.spare(len(keys))
	b.keys = keys
	e.m.Add(cStoreShardLookup, int64(len(keys)))
	if e.r.store.bind(keys, b.cells) {
		e.m.Inc(cCellArrayReused)
	}
	switch {
	case pos < memoBinds:
		e.binds[pos] = b // the memo's for good: never recycled, see Release
	case len(keys) > 0:
		e.link(b)
	}
	return b
}

// BindTable implements sim.Tables: the handle Bind would return for the
// table's keys, with no key formatted or looked up. The table's cells are
// one backing array the registry files under its identity (store.bindTable):
// one registry operation, and no shard lookup. The handle comes off the
// process's released ones as Bind's does, and ReleaseTable gives it back;
// the bind memo never holds one.
func (e *Env) BindTable(t sim.Table) sim.Regs {
	b := e.spare(t.Len)
	b.tab = t
	a, recycled := e.r.store.bindTable(t)
	if recycled {
		e.m.Inc(cCellArrayReused)
	}
	for i := range b.cells {
		b.cells[i] = &a.cells[i]
	}
	e.link(b)
	return b
}

// link appends b to the handles Release or ReleaseTable can take back.
func (e *Env) link(b *boundRegs) {
	if e.newest == nil {
		e.bound = b
	} else {
		e.newest.next = b
	}
	e.newest = b
}

// spare returns a handle for a table of n keys: the released one with the
// least room that fits, or a new one.
func (e *Env) spare(n int) *boundRegs {
	var best, before *boundRegs
	for prev, b := (*boundRegs)(nil), e.free; b != nil; prev, b = b, b.next {
		if c := cap(b.cells); c >= n && (best == nil || c < cap(best.cells)) {
			best, before = b, prev
		}
	}
	if best == nil {
		return &boundRegs{e: e, cells: make([]*cell, n)}
	}
	if before == nil {
		e.free = best.next
	} else {
		before.next = best.next
	}
	best.next, best.cells = nil, best.cells[:n]
	return best
}

// Release implements sim.Ops: the keys leave the register table and their
// cells are emptied and recycled (see store.release), so a handle bound to
// them before must not be used again — the caller has promised that of every
// process. It is not an operation: no step is counted and no crash strikes
// on it. A runtime whose table has released anything rebuilds the table at
// its next Reset and forgets the handles it memoised.
//
// When keys is the very slice (same first element, same length) from which
// this process bound a handle this run, and the bind memo does not hold that
// handle, the handle is emptied and parked for the process's next Bind; the
// caller may then refill the slice for another table. The parked handles
// belong to this process, so nothing here takes a lock.
func (e *Env) Release(keys []string) {
	e.m.Add(cRegReleased, int64(e.r.store.release(keys)))
	if len(keys) == 0 {
		return
	}
	for prev, b := (*boundRegs)(nil), e.bound; b != nil; prev, b = b, b.next {
		if len(b.keys) == len(keys) && &b.keys[0] == &keys[0] {
			e.park(prev, b)
			return
		}
	}
}

// ReleaseTable implements sim.Tables: the table's registers leave the
// registry, emptied, and its array is parked for the next bind of that
// length (store.releaseTable), as Release does for keys; a table already
// released, by this process or another, is skipped. The handle this process
// bound the table into, if it still holds one, is parked for its next bind.
func (e *Env) ReleaseTable(t sim.Table) {
	e.m.Add(cRegReleased, int64(e.r.store.releaseTable(t)))
	for prev, b := (*boundRegs)(nil), e.bound; b != nil; prev, b = b, b.next {
		if b.keys == nil && b.tab.Space == t.Space && b.tab.Family == t.Family && b.tab.Window == t.Window && len(b.cells) == t.Len {
			e.park(prev, b)
			return
		}
	}
}

// park unlinks b, which follows prev in the bound list, empties it and puts
// it on the free list.
func (e *Env) park(prev, b *boundRegs) {
	if prev == nil {
		e.bound = b.next
	} else {
		prev.next = b.next
	}
	if b.next == nil {
		e.newest = prev
	}
	clear(b.cells)
	b.keys, b.tab, b.cells = nil, sim.Table{}, b.cells[:0]
	b.next, e.free = e.free, b
}

// forgetBinds drops the remembered handles: the table they were resolved
// against is gone. A nil Env has none.
func (e *Env) forgetBinds() {
	if e != nil {
		e.binds = [memoBinds]*boundRegs{}
	}
}

// Len returns the number of bound slots.
func (b *boundRegs) Len() int { return len(b.cells) }

// Key returns the register key bound to slot i; a table bound by identity
// formats it now.
func (b *boundRegs) Key(i int) string {
	if b.keys == nil {
		return b.tab.Keys.TableKey(b.tab, i)
	}
	return b.keys[i]
}

// Read performs one atomic read of slot i: prologue plus one cell load.
func (b *boundRegs) Read(i int) sim.Value {
	b.e.step()
	b.e.m.Inc(cRegReadBound)
	return b.cells[i].load()
}

// ReadInt performs one atomic read of slot i, unboxed: packed int values
// come back without touching the heap regardless of magnitude.
func (b *boundRegs) ReadInt(i int) (int, bool) {
	b.e.step()
	b.e.m.Inc(cRegReadTyped)
	return b.cells[i].loadInt()
}

// Write performs one atomic write of slot i: prologue plus one cell store
// (packed and allocation-free for fitting ints, boxed otherwise). In event
// mode the write also bumps the runtime notifier so epoch-parked pollers
// re-sweep; the bump is two uncontended atomics unless someone is parked.
func (b *boundRegs) Write(i int, v sim.Value) {
	b.e.step()
	b.e.m.Inc(cRegWriteBound)
	b.cells[i].store(v, &b.e.m)
	if b.e.r.wake {
		b.e.r.notify.bump()
	}
}

// WriteInt performs one atomic write of slot i, unboxed and allocation-free
// for every int that fits 63 bits. Bumps the notifier in event mode, like
// Write.
func (b *boundRegs) WriteInt(i int, x int) {
	b.e.step()
	b.e.m.Inc(cRegWriteTyped)
	b.cells[i].storeInt(x, &b.e.m)
	if b.e.r.wake {
		b.e.r.notify.bump()
	}
}

// ReadMany performs a batched collect over every bound slot: one operation
// prologue (counting Len reads, exactly as the sim backend consumes Len
// steps), then one atomic load per cell into dst, or into the handle's own
// buffer when dst is too short (nil included); only the handle's first such
// collect allocates. It is a regular collect, never a snapshot: concurrent
// writes may land between the individual loads.
func (b *boundRegs) ReadMany(dst []sim.Value) []sim.Value {
	b.e.ops += int64(len(b.cells)) - 1
	b.e.step()
	b.e.m.Inc(cRegCollectBound)
	if len(dst) < len(b.cells) {
		if cap(b.buf) < len(b.cells) {
			b.buf = make([]sim.Value, len(b.cells))
		}
		dst = b.buf
	}
	dst = dst[:len(b.cells)]
	for i, c := range b.cells {
		dst[i] = c.load()
	}
	return dst
}
