package paxos

import (
	"slices"
	"strconv"

	"wfadvice/internal/sim"
)

// This file chains single-decree instances into a replicated log: slot i of
// the log named prefix is the consensus instance keyed SlotKey(prefix, i).
// A Log is one process's local view of that chain. It binds instance
// registers a window of slots at a time — the decision registers for batched
// sweeps, the block registers when this process first proposes in the
// window — and hands out proposers that are views into those tables, so a
// slot costs its protocol writes: no key is formatted, no register resolved
// and no proposer allocated per slot. It keeps the tables of the windows it
// has moved on from, by value, and releases them to the backend when its
// caller says no process will touch them again (Truncate). A window costs
// the log nothing of its own but its share of that list, which Truncate
// compacts in place; a released key-bound window leaves its key slices for
// the next slide to refill.
//
// Windows are aligned to multiples of their length, so that every view names
// the same ones. How a window is bound depends on the backend handle. One
// that offers sim.Tables (the native Env) binds it by identity: the log
// prefix, "dec" or "blk", the window's number and its length. No key is
// formatted; a truncated log pays nothing per window, and a window its
// caller keeps (one a crashed replica announced) pays its registers and
// nothing per view. Any other handle — the sim backend, a decorator that
// embeds sim.Ops — binds the window's formatted keys, cut from one string
// per table into slices the window keeps.

// SlotKey returns the consensus-instance key of slot i of the log prefix.
func SlotKey(prefix string, slot int) string {
	return string(appendSlotKey(nil, prefix, slot))
}

func appendSlotKey(b []byte, prefix string, slot int) []byte {
	return strconv.AppendInt(append(append(b, prefix...), '/'), int64(slot), 10)
}

// logWindow is the default number of slots whose registers a Log binds at
// once. The window is the aligned one that covers the sweep frontier and is
// re-bound only when the frontier walks past its end, so binding cost
// amortizes to one pair of key tables per window of decided slots.
const logWindow = 64

// The table families of a window bound by identity.
const (
	decFamily = "dec"
	blkFamily = "blk"
)

// window is the bound registers of one window of consecutive slots, with the
// key tables they were bound from if they were bound by key (what Truncate
// hands to Release, and what the next slide refills once it has).
type window struct {
	base    int      // first slot covered
	dec     sim.Regs // DecKey(SlotKey(prefix, base+i)) at slot i
	decKeys []string
	// blk holds BlockKey(SlotKey(prefix, base+i), j) at slot i*nProps+j. It
	// stays nil until this process proposes in the window: followers only
	// sweep decisions and never pay for it.
	blk     sim.Regs
	blkKeys []string
}

// Log is one process's handle on a replicated log of consensus instances.
// It is purely local mechanism: slot proposers and the bound window they
// and the decision sweeps share. Policy — who proposes, what a decided
// value means — belongs to the caller: internal/kv's replica, and the
// Theorem 9 machine of internal/core (an admission log and a log per
// simulated code).
type Log struct {
	e      sim.Ops
	tabs   sim.Tables // e's table binding, nil if it binds keys only
	prefix string
	me     int
	nProps int
	length int // slots per window

	props  map[int]*Proposer // live proposers by slot
	free   []*Proposer       // structs handed back by Release, for Proposer to reuse
	blocks sim.Slab[Block]   // the blocks this view's proposers have written

	win   window      // win.dec is nil before the first bind
	old   []window    // the windows slide has left, until Truncate releases them
	spare []window    // windows Truncate released, for slide to refill their keys
	buf   []sim.Value // scratch for win.dec.ReadMany

	keyBuf  []byte // scratch of keyTable
	keyEnds []int
}

// NewLog returns a log view for proposer me (unique in 0..nProposers-1)
// bound to backend handle e, binding registers window slots at a time (0 =
// 64). Every view of one log must be given the same window.
func NewLog(e sim.Ops, prefix string, me, nProposers, window int) *Log {
	if window < 1 {
		window = logWindow
	}
	tabs, _ := e.(sim.Tables)
	return &Log{
		e:      e,
		tabs:   tabs,
		prefix: prefix,
		me:     me,
		nProps: nProposers,
		length: window,
		props:  make(map[int]*Proposer),
		buf:    make([]sim.Value, window),
	}
}

// Window is the number of slots per bound window.
func (l *Log) Window() int { return l.length }

// keyTable cuts a table of n register keys out of one string into keys,
// which it empties first; format appends key i to the buffer it is given. The
// formatting buffer and the key boundaries are scratch kept across calls, so
// a table costs its string, and its slice unless keys is a released table's
// with room for n, however many keys it holds.
func (l *Log) keyTable(keys []string, n int, format func(b []byte, i int) []byte) []string {
	buf, ends := l.keyBuf[:0], l.keyEnds[:0]
	for i := 0; i < n; i++ {
		buf = format(buf, i)
		ends = append(ends, len(buf))
	}
	l.keyBuf, l.keyEnds = buf, ends
	all := string(buf)
	if cap(keys) < n {
		keys = make([]string, 0, n)
	}
	keys = keys[:0]
	at := 0
	for _, end := range ends {
		keys = append(keys, all[at:end])
		at = end
	}
	return keys
}

// blockKeys cuts the block keys of the window at base into keys (see
// keyTable): BlockKey(SlotKey(prefix, base+i), j) at slot i*nProps+j.
func (l *Log) blockKeys(keys []string, base int) []string {
	return l.keyTable(keys, l.length*l.nProps, func(b []byte, i int) []byte {
		b = append(appendSlotKey(b, l.prefix, base+i/l.nProps), blkInfix...)
		return strconv.AppendInt(b, int64(i%l.nProps), 10)
	})
}

// slide positions the bound window so that it covers slot and returns it,
// refilling the key tables of a window Truncate released if there is one. The
// window it leaves is kept, by value, for Truncate.
func (l *Log) slide(slot int) *window {
	w := &l.win
	if w.dec != nil {
		if slot >= w.base && slot < w.base+l.length {
			return w
		}
		l.old = append(l.old, *w)
	}
	*w = window{}
	if n := len(l.spare); n > 0 {
		*w, l.spare = l.spare[n-1], l.spare[:n-1]
	}
	w.base = slot - slot%l.length
	if l.tabs != nil {
		w.dec = l.tabs.BindTable(l.table(decFamily, w.base))
	} else {
		w.decKeys = l.keyTable(w.decKeys, l.length, func(b []byte, i int) []byte {
			return append(appendSlotKey(b, l.prefix, w.base+i), decSuffix...)
		})
		w.dec = l.e.Bind(w.decKeys)
	}
	return w
}

// table returns the identity of the window at base in family fam: its
// decision table, or its block table of nProps registers a slot.
func (l *Log) table(fam string, base int) sim.Table {
	n := l.length
	if fam == blkFamily {
		n *= l.nProps
	}
	return sim.Table{Space: l.prefix, Family: fam, Window: base / l.length, Len: n}
}

// Truncate releases the registers of every window this view has left that
// lies wholly below slot below, except the windows whose bases keep names:
// the decision registers and the block registers, whether this view bound
// the blocks or not — a proposer that crashed in the window may be the only
// one that did. The caller vouches for what sim.Ops.Release demands — no
// process will touch a slot of a released window again, through any window
// — and the views agree on which registers that is: every window is aligned
// to a multiple of the window length. A kept window stays with the view for
// a later Truncate. Views release the same tables independently; one already
// gone is skipped by the backend. A table bound by identity costs nothing to
// name; a key-bound window formats the block keys it never bound, as
// Proposer does, and its key slices are kept for slide to refill. The
// current window is never released.
func (l *Log) Truncate(below int, keep ...int) {
	kept := l.old[:0]
	for _, w := range l.old {
		if w.base+l.length > below || slices.Contains(keep, w.base) {
			kept = append(kept, w)
			continue
		}
		if l.tabs != nil {
			l.tabs.ReleaseTable(l.table(decFamily, w.base))
			l.tabs.ReleaseTable(l.table(blkFamily, w.base))
			continue
		}
		if w.blk == nil {
			w.blkKeys = l.blockKeys(w.blkKeys, w.base)
		}
		l.e.Release(w.decKeys)
		l.e.Release(w.blkKeys)
		l.spare = append(l.spare, window{decKeys: w.decKeys, blkKeys: w.blkKeys})
	}
	clear(l.old[len(kept):])
	l.old = kept
}

// Proposer returns the slot's proposer, minting it on first use: a view into
// the tables of the window covering the slot (moving the window there if it
// is elsewhere — a caller that also sweeps proposes at its sweep frontier),
// in a struct Release handed back if there is one. The first proposer of a
// window binds the window's block registers; after that minting formats,
// binds and allocates nothing. The proposal starts nil; supply it via
// SetProposal.
func (l *Log) Proposer(slot int) *Proposer {
	if p, ok := l.props[slot]; ok {
		return p
	}
	w := l.slide(slot)
	switch {
	case w.blk != nil:
	case l.tabs != nil:
		w.blk = l.tabs.BindTable(l.table(blkFamily, w.base))
	default:
		w.blkKeys = l.blockKeys(w.blkKeys, w.base)
		w.blk = l.e.Bind(w.blkKeys)
	}
	var p *Proposer
	if n := len(l.free); n > 0 {
		p, l.free = l.free[n-1], l.free[:n-1]
	} else {
		p = new(Proposer)
	}
	i := slot - w.base
	*p = Proposer{
		blk:    w.blk,
		blkOff: i * l.nProps,
		dec:    w.dec,
		decOff: i,
		me:     l.me,
		nProps: l.nProps,
		blocks: &l.blocks,
		pc:     pcPoll,
		round:  l.me + 1,
	}
	l.props[slot] = p
	return p
}

// Release drops the slot's proposer, so a long-lived log holds proposers
// only for slots still being driven, and keeps the struct for the next
// Proposer call. Callers release a slot once it has been applied and must
// not step its proposer again: the struct is wiped here and will drive
// another slot.
func (l *Log) Release(slot int) {
	p, ok := l.props[slot]
	if !ok {
		return
	}
	delete(l.props, slot)
	*p = Proposer{}
	l.free = append(l.free, p)
}

// Decided reads slot's decision register once (through the bound window)
// and decodes it.
func (l *Log) Decided(slot int) (Value, bool) {
	w := l.slide(slot)
	return DecodeDecision(w.dec.Read(slot - w.base))
}

// Sweep collects the window of decision registers covering slot from in one
// batched ReadMany and invokes apply once for each consecutively decided
// slot starting there, in order. apply must consume the slot; returning
// false stops the sweep after it. Sweep stops at the window's end, so a
// caller that must announce a window before it touches one (internal/kv's
// replica) gets the turn to: a replica that fell behind catches up in one
// call per window. Sweep returns the new frontier: the first slot not passed
// to apply.
func (l *Log) Sweep(from int, apply func(slot int, v Value) bool) int {
	w := l.slide(from)
	w.dec.ReadMany(l.buf)
	end := w.base + l.length
	for ; from < end; from++ {
		v, ok := DecodeDecision(l.buf[from-w.base])
		if !ok {
			return from
		}
		if !apply(from, v) {
			return from + 1
		}
	}
	return end
}
