package native

import "wfadvice/internal/sim"

// This file is the native implementation of sim.Regs, the bound-register
// handle behind the backend's allocation-free hot path, in its two kinds.
// Ops.Bind resolves a body's key table to cell pointers exactly once, into a
// boundRegs the process owns; the bind memo hands its first few back the
// next run. Tables.BindTable resolves nothing: the table's backing array
// keeps a view of itself per process that binds it (tableRegs), which
// indexes the array's cells directly, so a bind allocates and fills nothing
// and a release has nothing of the process's to take back. Either way every
// bound operation is the operation prologue (step counting, stop/crash
// check) plus a direct atomic access on the cell — no lock, no map lookup,
// and, for integer values and reused collect buffers, no allocation
// (asserted by TestReadWriteAllocs with testing.AllocsPerRun). Poll loops —
// the direct solver's decision sweeps, the S-process input harvest,
// auto.RunOnEnv collects, every paxos instance — run on bound handles.

// boundRegs is the native sim.Regs of a key table: a resolved cell pointer per
// slot, and the collect buffer ReadMany fills when the caller brings none. A
// handle the bind memo returns next run brings its buffer along.
type boundRegs struct {
	e     *Env
	keys  []string
	cells []*cell
	buf   []sim.Value
}

// tableRegs is the native sim.Regs of a table bound by identity: one
// process's view of the table's backing array, kept in that array
// (regArray.view) and indexing its cells directly. Only its process uses
// it, buffer included; the array keeps it for that process across every
// table the array serves.
type tableRegs struct {
	e     *Env
	cells []cell
	buf   []sim.Value
}

var (
	_ sim.Regs   = (*boundRegs)(nil)
	_ sim.Regs   = (*tableRegs)(nil)
	_ sim.Tables = (*Env)(nil)
)

// memoBinds is how many of a run's Binds, counted per process from its first,
// an Env remembers for the next run. A one-shot body binds its whole key set
// in at most three calls, whatever its k: the direct S-process binds its k
// consensus instances as one table. A paxos.Log on a raw Env binds its
// windows as tables (BindTable), which the memo never holds; one behind a
// decorator binds a keyed table per window, and each bind past the memo's
// takes a new handle.
const memoBinds = 4

// Bind implements sim.Ops: it resolves every key to its register cell,
// straight through the table (one map lookup per key under one hold of its
// mutex; the cells this call mints share one backing array, see store.bind),
// and returns a new bound handle. Bind is the setup step: it runs once per
// body, per stand-alone consensus instance or per window of log slots, and
// the operations on the result do not allocate.
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
	b := &boundRegs{e: e, keys: keys, cells: make([]*cell, len(keys))}
	e.m.Add(cStoreShardLookup, int64(len(keys)))
	if e.r.store.bind(keys, b.cells) {
		e.m.Inc(cCellArrayReused)
	}
	if pos < memoBinds {
		e.binds[pos] = b
	}
	return b
}

// BindTable implements sim.Tables: this process's view of the table's
// registers, with no key formatted or looked up. The table's cells are one
// backing array the registry files under its identity, and the array keeps
// one view per process that binds it (store.bindTable): one registry
// operation, no key resolved, and nothing allocated or filled. Binding the
// table again, or a table the array serves after it was recycled, hands the
// process the same view; the bind memo never holds one.
func (e *Env) BindTable(t sim.Table) sim.Regs {
	v, recycled := e.r.store.bindTable(t, e)
	if recycled {
		e.m.Inc(cCellArrayReused)
	}
	return v
}

// Release implements sim.Ops: the keys leave the register table and their
// cells are emptied and recycled (see store.release), so a handle bound to
// them before must not be used again — the caller has promised that of every
// process. It is not an operation: no step is counted and no crash strikes
// on it. A runtime whose table has released anything rebuilds the table at
// its next Reset and forgets the handles it memoised. Only registers go
// back: no handle is recycled.
func (e *Env) Release(keys []string) {
	e.m.Add(cRegReleased, int64(e.r.store.release(keys)))
}

// ReleaseTable implements sim.Tables: the table's registers leave the
// registry, emptied, and its array is parked, with the views of it, for the
// next bind of that length (store.releaseTable), as Release does for keys; a
// table already released, by this process or another, is skipped. The
// process has nothing of its own to give back: its view stays with the array.
func (e *Env) ReleaseTable(t sim.Table) {
	e.m.Add(cRegReleased, int64(e.r.store.releaseTable(t)))
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

// Read performs one atomic read of slot i: prologue plus one cell load.
func (b *boundRegs) Read(i int) sim.Value { return b.e.read(b.cells[i]) }

// ReadInt performs one atomic read of slot i, unboxed: packed int values
// come back without touching the heap regardless of magnitude.
func (b *boundRegs) ReadInt(i int) (int, bool) { return b.e.readInt(b.cells[i]) }

// Write performs one atomic write of slot i: prologue plus one cell store
// (packed and allocation-free for fitting ints, boxed otherwise).
func (b *boundRegs) Write(i int, v sim.Value) { b.e.write(b.cells[i], v) }

// WriteInt performs one atomic write of slot i, unboxed and allocation-free
// for every int that fits 63 bits.
func (b *boundRegs) WriteInt(i int, x int) { b.e.writeInt(b.cells[i], x) }

// ReadMany performs a batched collect over every bound slot (see
// Env.collect).
func (b *boundRegs) ReadMany(dst []sim.Value) []sim.Value {
	dst = b.e.collect(dst, len(b.cells), &b.buf)
	for i, c := range b.cells {
		dst[i] = c.load()
	}
	return dst
}

// Len returns the number of the table's registers.
func (v *tableRegs) Len() int { return len(v.cells) }

// Read performs one atomic read of slot i, as boundRegs.Read.
func (v *tableRegs) Read(i int) sim.Value { return v.e.read(&v.cells[i]) }

// ReadInt performs one atomic read of slot i, unboxed, as boundRegs.ReadInt.
func (v *tableRegs) ReadInt(i int) (int, bool) { return v.e.readInt(&v.cells[i]) }

// Write performs one atomic write of slot i, as boundRegs.Write.
func (v *tableRegs) Write(i int, x sim.Value) { v.e.write(&v.cells[i], x) }

// WriteInt performs one atomic write of slot i, unboxed, as
// boundRegs.WriteInt.
func (v *tableRegs) WriteInt(i int, x int) { v.e.writeInt(&v.cells[i], x) }

// ReadMany performs a batched collect over the table (see Env.collect).
func (v *tableRegs) ReadMany(dst []sim.Value) []sim.Value {
	dst = v.e.collect(dst, len(v.cells), &v.buf)
	for i := range v.cells {
		dst[i] = v.cells[i].load()
	}
	return dst
}

// read is a bound read of c: the operation prologue plus one cell load.
func (e *Env) read(c *cell) sim.Value {
	e.step()
	e.m.Inc(cRegReadBound)
	return c.load()
}

// readInt is a bound typed read of c.
func (e *Env) readInt(c *cell) (int, bool) {
	e.step()
	e.m.Inc(cRegReadTyped)
	return c.loadInt()
}

// write is a bound write of v to c. In event mode it also bumps the runtime
// notifier so epoch-parked pollers re-sweep; the bump is two uncontended
// atomics unless someone is parked.
func (e *Env) write(c *cell, v sim.Value) {
	e.step()
	e.m.Inc(cRegWriteBound)
	c.store(v, &e.m)
	if e.r.wake {
		e.r.notify.bump()
	}
}

// writeInt is a bound typed write of x to c; it bumps the notifier like write.
func (e *Env) writeInt(c *cell, x int) {
	e.step()
	e.m.Inc(cRegWriteTyped)
	c.storeInt(x, &e.m)
	if e.r.wake {
		e.r.notify.bump()
	}
}

// collect is the prologue of a batched collect over n bound slots: one
// operation prologue counting n reads, exactly as the sim backend consumes n
// steps. It returns dst cut to n, or the handle's own buffer *buf when dst is
// too short (nil included), built by the handle's first such collect; the
// caller then loads one cell per slot into it. It is a regular collect, never
// a snapshot: concurrent writes may land between the individual loads.
func (e *Env) collect(dst []sim.Value, n int, buf *[]sim.Value) []sim.Value {
	e.ops += int64(n) - 1
	e.step()
	e.m.Inc(cRegCollectBound)
	if len(dst) < n {
		if cap(*buf) < n {
			*buf = make([]sim.Value, n)
		}
		dst = *buf
	}
	return dst[:n]
}
