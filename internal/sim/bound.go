package sim

import "slices"

// This file defines Regs, the bound-register handle returned by Ops.Bind: a
// fixed key table resolved once into slot-indexed operations. Binding exists
// for the native backend, where it turns every hot-loop operation into a
// direct atomic access on a resolved cell pointer with no per-op hashing,
// map lookups or allocation. On the sim backend a bound operation is — by
// construction and pinned by bound_test.go under the Scripted scheduler —
// step-for-step identical to the keyed operation it replaces: one scheduled
// step per read/write, identical trace events and pending-op surface, so
// schedules, explorer state spaces and experiment bytes are unchanged by
// porting a body onto Bind.

// Regs is a bound view of a fixed register key table: slot i addresses the
// key passed at position i of Bind. All operations follow the semantics of
// the corresponding Ops methods (each read and write is one atomic step). A
// handle is not used after its registers are released (Ops.Release).
type Regs interface {
	// Len returns the number of bound slots.
	Len() int
	// Read performs one atomic read of slot i.
	Read(i int) Value
	// ReadInt performs one atomic read of slot i and reports its value if
	// that value is an int. It is the typed poll-loop read: on the native
	// backend it returns packed small integers without boxing, so a counter
	// poll allocates nothing regardless of the value's magnitude.
	ReadInt(i int) (int, bool)
	// Write performs one atomic write of slot i.
	Write(i int, v Value)
	// WriteInt performs one atomic write of an int to slot i. It is the
	// typed counterpart of Write: on the native backend the value is packed
	// into the cell unboxed, so the write allocates nothing regardless of
	// the value's magnitude.
	WriteInt(i int, x int)
	// ReadMany performs one atomic read per bound slot, in slot order — a
	// regular collect over the whole table, with exactly the semantics of
	// Ops.ReadMany over the bound keys (one scheduled step per slot on sim;
	// one operation prologue plus Len atomic loads on native). The values
	// are stored into dst when it is large enough (len(dst) ≥ Len) and the
	// filled prefix is returned. A shorter dst, nil included, is replaced by
	// a buffer the handle owns: it is allocated by the handle's first such
	// collect, stays valid until the handle's next ReadMany overwrites it,
	// and makes every later collect allocation-free.
	ReadMany(dst []Value) []Value
}

// Table names a table of registers by its identity instead of by keys: the
// tables of a paxos.Log window are Space (the log's prefix), Family ("dec" or
// "blk"), the window's aligned number and its length. The keys of the space
// are Space, a slash and a decimal number, then anything; binding a table
// formats none of them.
type Table struct {
	Space  string
	Family string
	Window int
	Len    int
}

// Tables is the optional capability of an Ops backend to bind a table by its
// identity: BindTable returns the handle Bind would return for the table's
// keys, and ReleaseTable gives the registers back as Release would, skipping
// a table that is already gone. A caller asks for it with a type assertion
// and falls back to Bind and Release without it. Only the native Env offers
// it; the sim backend and any decorator that embeds Ops do not, so their
// runs keep binding keys. See Ops for the one rule it adds.
type Tables interface {
	BindTable(t Table) Regs
	ReleaseTable(t Table)
}

// boundEnv is the sim implementation of Regs: a thin wrapper delegating
// every slot operation to the keyed Env operation, so each one parks on the
// scheduler exactly as the unbound equivalent.
type boundEnv struct {
	e    *Env
	keys []string
	buf  []Value // ReadMany's own buffer
}

var _ Regs = (*boundEnv)(nil)

// Bind implements Ops: it resolves keys into a bound handle. On this backend
// resolution keeps a copy of the key table only — every bound operation still
// consumes one scheduled step through the same code path as its keyed
// equivalent. The copy is what keeps the use-after-release oracle honest: a
// caller may refill a slice it has released (Ops.Release) with live keys, and
// a handle that shared it would then name them.
func (e *Env) Bind(keys []string) Regs { return &boundEnv{e: e, keys: slices.Clone(keys)} }

// Len returns the number of bound slots.
func (b *boundEnv) Len() int { return len(b.keys) }

// Read performs one atomic read of slot i (one scheduled step).
func (b *boundEnv) Read(i int) Value { return b.e.Read(b.keys[i]) }

// ReadInt performs one atomic read of slot i (one scheduled step).
func (b *boundEnv) ReadInt(i int) (int, bool) {
	x, ok := b.e.Read(b.keys[i]).(int)
	return x, ok
}

// Write performs one atomic write of slot i (one scheduled step).
func (b *boundEnv) Write(i int, v Value) { b.e.Write(b.keys[i], v) }

// WriteInt performs one atomic write of slot i (one scheduled step).
func (b *boundEnv) WriteInt(i int, x int) { b.e.Write(b.keys[i], x) }

// ReadMany collects every bound slot in order, one scheduled step per slot,
// exactly as Ops.ReadMany over the bound keys.
func (b *boundEnv) ReadMany(dst []Value) []Value {
	if len(dst) < len(b.keys) {
		if b.buf == nil {
			b.buf = make([]Value, len(b.keys))
		}
		dst = b.buf
	}
	dst = dst[:len(b.keys)]
	for i, k := range b.keys {
		dst[i] = b.e.Read(k)
	}
	return dst
}
