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

// boundRegs is the native sim.Regs: a resolved cell pointer per slot.
type boundRegs struct {
	e     *Env
	keys  []string
	cells []*cell
}

var _ sim.Regs = (*boundRegs)(nil)

// memoBinds is how many of a run's Binds, counted per process from its first,
// an Env remembers for the next run. A one-shot body binds its whole key set
// in its first two or three calls; a long-lived one that binds a fresh table
// per window of log slots is remembered for its first few and no further.
const memoBinds = 4

// Bind implements sim.Ops: it resolves every key to its register cell,
// straight through the sharded table (one shard lookup per key; the cells
// this call mints share one backing array, see store.bind), and returns the
// bound handle. Bind is the setup step: it allocates the handle and runs
// once per body, per stand-alone consensus instance or per window of log
// slots; the operations on the result do not allocate.
//
// On a re-armed runtime that kept its register table, a Bind of the table
// this process bound at the same call position last run — the same backing
// array and length; scenarios share one table per scenario — returns last
// run's handle: its cells are the table's cells for those keys, emptied by
// the Reset, and nothing is resolved or allocated.
func (e *Env) Bind(keys []string) sim.Regs {
	pos := e.nbind
	e.nbind++
	if pos < memoBinds {
		if b := e.binds[pos]; b != nil && len(b.keys) == len(keys) && (len(keys) == 0 || &b.keys[0] == &keys[0]) {
			return b
		}
	}
	cells := make([]*cell, len(keys))
	e.m.Add(cStoreShardLookup, int64(len(keys)))
	if e.r.store.bind(keys, cells) {
		e.m.Inc(cCellArrayReused)
	}
	b := &boundRegs{e: e, keys: keys, cells: cells}
	if pos < memoBinds {
		e.binds[pos] = b
	}
	return b
}

// Release implements sim.Ops: the keys leave the register table and their
// cells are emptied and recycled (see store.release), so a handle bound to
// them before must not be used again — the caller has promised that of every
// process. It is not an operation: no step is counted and no crash strikes
// on it. A runtime whose table has released anything rebuilds the table at
// its next Reset and forgets the handles it memoised.
func (e *Env) Release(keys []string) {
	e.m.Add(cRegReleased, int64(e.r.store.release(keys)))
}

// forgetBinds drops the remembered handles: the table they were resolved
// against is gone. A nil Env has none.
func (e *Env) forgetBinds() {
	if e != nil {
		e.binds = [memoBinds]*boundRegs{}
	}
}

// Len returns the number of bound slots.
func (b *boundRegs) Len() int { return len(b.keys) }

// Key returns the register key bound to slot i.
func (b *boundRegs) Key(i int) string { return b.keys[i] }

// Read performs one atomic read of slot i: prologue plus one cell load.
func (b *boundRegs) Read(i int) sim.Value {
	b.e.step()
	b.e.m.Inc(cRegReadBound)
	return b.cells[i].load(&b.e.m)
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
// steps), then one atomic load per cell into dst. With a reused dst the
// collect allocates nothing. It is a regular collect, never a snapshot:
// concurrent writes may land between the individual loads.
func (b *boundRegs) ReadMany(dst []sim.Value) []sim.Value {
	b.e.ops += int64(len(b.cells)) - 1
	b.e.step()
	b.e.m.Inc(cRegCollectBound)
	if len(dst) < len(b.cells) {
		dst = make([]sim.Value, len(b.cells))
	}
	dst = dst[:len(b.cells)]
	for i, c := range b.cells {
		dst[i] = c.load(&b.e.m)
	}
	return dst
}
