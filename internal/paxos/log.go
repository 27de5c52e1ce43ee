package paxos

import (
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
// and no proposer allocated per slot. It keeps the key tables of the windows
// it has moved on from, and releases them to the backend when its caller
// says every process is past them (Truncate).

// SlotKey returns the consensus-instance key of slot i of the log prefix.
func SlotKey(prefix string, slot int) string {
	return string(appendSlotKey(nil, prefix, slot))
}

func appendSlotKey(b []byte, prefix string, slot int) []byte {
	return strconv.AppendInt(append(append(b, prefix...), '/'), int64(slot), 10)
}

// logWindow is the default number of slots whose registers a Log binds at
// once. The window starts at the sweep frontier and is re-bound only when
// the frontier walks past its end, so binding cost amortizes to one pair of
// key tables per window of decided slots.
const logWindow = 64

// window is the bound registers of one window of consecutive slots, with the
// key tables they were bound from (what Truncate hands to Release).
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
// value means — belongs to the caller (internal/kv's replica).
type Log struct {
	e      sim.Ops
	prefix string
	me     int
	nProps int
	length int // slots per window

	props map[int]*Proposer // live proposers by slot
	free  []*Proposer       // structs handed back by Release, for Proposer to reuse

	win *window     // nil before the first bind
	old []*window   // the windows slide has left, until Truncate releases them
	buf []sim.Value // scratch for win.dec.ReadMany

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
	return &Log{
		e:      e,
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

// keyTable cuts a table of n register keys out of one string; format appends
// key i to the buffer it is given. The formatting buffer and the key
// boundaries are scratch kept across calls, so a table costs its string and
// its slice however many keys it holds.
func (l *Log) keyTable(n int, format func(b []byte, i int) []byte) []string {
	buf, ends := l.keyBuf[:0], l.keyEnds[:0]
	for i := 0; i < n; i++ {
		buf = format(buf, i)
		ends = append(ends, len(buf))
	}
	l.keyBuf, l.keyEnds = buf, ends
	all := string(buf)
	keys := make([]string, n)
	at := 0
	for i, end := range ends {
		keys[i] = all[at:end]
		at = end
	}
	return keys
}

// slide positions the bound window so that it covers slot and returns it.
// The window it leaves is kept for Truncate.
func (l *Log) slide(slot int) *window {
	if w := l.win; w != nil {
		if slot >= w.base && slot < w.base+l.length {
			return w
		}
		l.old = append(l.old, w)
	}
	keys := l.keyTable(l.length, func(b []byte, i int) []byte {
		return append(appendSlotKey(b, l.prefix, slot+i), decSuffix...)
	})
	l.win = &window{base: slot, dec: l.e.Bind(keys), decKeys: keys}
	return l.win
}

// Truncate releases the registers of every window this view has left that
// lies wholly below slot min: the decision registers, and the block registers
// if this view bound them. The caller vouches for what sim.Ops.Release
// demands — no process will touch a slot below min again, through any window
// — and the views agree on which keys that is when their windows have the
// same bases, as they do when each walks its frontier up from slot 0. Views
// release the same decision keys independently; a key already gone is
// skipped by the backend. The current window is never released.
func (l *Log) Truncate(min int) {
	kept := l.old[:0]
	for _, w := range l.old {
		if w.base+l.length > min {
			kept = append(kept, w)
			continue
		}
		l.e.Release(w.decKeys)
		if w.blkKeys != nil {
			l.e.Release(w.blkKeys)
		}
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
	if w.blk == nil {
		w.blkKeys = l.keyTable(l.length*l.nProps, func(b []byte, i int) []byte {
			b = append(appendSlotKey(b, l.prefix, w.base+i/l.nProps), blkInfix...)
			return strconv.AppendInt(b, int64(i%l.nProps), 10)
		})
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
// false stops the sweep after it. If the sweep drains a fully decided
// window it slides forward and keeps going, so a replica that fell behind
// (crashed leader, late start) catches up in O(decided/window) collects.
// Sweep returns the new frontier: the first slot not passed to apply.
func (l *Log) Sweep(from int, apply func(slot int, v Value) bool) int {
	for {
		w := l.slide(from)
		w.dec.ReadMany(l.buf)
		end := w.base + l.length
		for from < end {
			v, ok := DecodeDecision(l.buf[from-w.base])
			if !ok {
				return from
			}
			if !apply(from, v) {
				return from + 1
			}
			from++
		}
	}
}
