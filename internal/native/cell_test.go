package native

import (
	"fmt"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"wfadvice/internal/sim"
)

// The values the cell tests write. Every int and struct value names its
// writer and its position in that writer's sequence, so a reader can tell a
// value that came back from one that was never written.
type (
	recA struct{ W, I, Sum int }
	recB struct {
		Tag    string
		Sum, W int
		I      int
	}
	writerKind int
)

const (
	kindInt writerKind = iota
	kindA
	kindB
	kindNil
	kindNilPtr
	numKinds
)

var kindNames = [numKinds]string{"int", "recA", "recB", "nil", "nilptr"}

const sumMul = 1_000_003

// testMetrics is the counter handle the raced cells are driven with.
var testMetrics = Telemetry.Handle()

// writeKind performs writer w's i-th write (i ≥ 1) on c. Int writers
// alternate between the generic and the typed surface.
func writeKind(c *cell, k writerKind, w, i int) {
	m := &testMetrics
	switch k {
	case kindInt:
		if x := (w+1)<<32 | i; i%2 == 0 {
			c.storeInt(x, m)
		} else {
			c.store(x, m)
		}
	case kindA:
		c.store(recA{W: w, I: i, Sum: w*sumMul + i}, m)
	case kindB:
		c.store(recB{Tag: "b", Sum: w*sumMul + i, W: w, I: i}, m)
	case kindNil:
		c.store(nil, m)
	case kindNilPtr:
		c.store((*recA)(nil), m)
	}
}

// cellReader is one reading process's view of a raced cell: it validates
// every value against what the writers can have written and remembers which
// values it has seen replaced.
type cellReader struct {
	kinds []writerKind
	// prevW, prevI identify the previous read's value; prevW < 0 when it
	// carried no identity (nil, a nil pointer).
	prevW, prevI int
	// retired[w] is the highest position in writer w's sequence this reader
	// has seen followed by a different value. Each writer's positions only
	// grow, so reading one at or below it again is an X-Y-X inversion.
	retired []int
	written bool // some read returned a written value
}

func newCellReader(kinds []writerKind) *cellReader {
	return &cellReader{kinds: kinds, prevW: -1, retired: make([]int, len(kinds))}
}

func (r *cellReader) has(k writerKind) bool { return slices.Contains(r.kinds, k) }

// observe checks one read; a non-empty result describes the violation.
func (r *cellReader) observe(v sim.Value) string {
	w, i := -1, 0
	wrote := func(k writerKind, w int) bool { return w >= 0 && w < len(r.kinds) && r.kinds[w] == k }
	switch x := v.(type) {
	case nil:
		if r.written && !r.has(kindNil) {
			return "read nil after a written value, and nobody writes nil"
		}
	case int:
		w, i = x>>32-1, x&(1<<32-1)
		if !wrote(kindInt, w) || i < 1 {
			return fmt.Sprintf("read int %#x, which nobody wrote", x)
		}
	case recA:
		w, i = x.W, x.I
		if !wrote(kindA, w) || x.Sum != w*sumMul+i {
			return fmt.Sprintf("read torn %+v", x)
		}
	case recB:
		w, i = x.W, x.I
		if !wrote(kindB, w) || x.Sum != w*sumMul+i || x.Tag != "b" {
			return fmt.Sprintf("read torn %+v", x)
		}
	case *recA:
		if x != nil || !r.has(kindNilPtr) {
			return fmt.Sprintf("read pointer %p, which nobody wrote", x)
		}
	default:
		return fmt.Sprintf("read mistyped %T %v", v, v)
	}
	if v != nil {
		r.written = true
	}
	if w >= 0 && i <= r.retired[w] {
		return fmt.Sprintf("read writer %d's value %d again after seeing it replaced (its %d was already gone)", w, i, r.retired[w])
	}
	r.follow(w, i)
	return ""
}

// follow records that writer w's i-th value (w < 0: a value without
// identity) came after the previous one this process saw: read next, or
// written by the process itself over it.
func (r *cellReader) follow(w, i int) {
	if r.prevW >= 0 && (w != r.prevW || i != r.prevI) {
		r.retired[r.prevW] = r.prevI
	}
	r.prevW, r.prevI = w, i
}

// wrote records the process's own write, writer w's i-th, of kind k.
func (r *cellReader) wrote(k writerKind, w, i int) {
	r.written = r.written || k != kindNil
	if k == kindNil || k == kindNilPtr {
		w, i = -1, 0
	}
	r.follow(w, i)
}

// raceCell runs one round on a fresh cell, all goroutines released together.
// Every writer reads, writes, and reads twice more, so each is also a reader
// that knows one more thing: whatever it read before its own write is gone
// for good once the write returns. (Two processes on two processors are
// enough for a register of two words to show that one X, own write, X; a
// pure reader has to catch a writer descheduled between its two stores.) A
// pure reader, mixing loadInt in, reads until the writers are done.
func raceCell(t *testing.T, kinds []writerKind, writes int) *cell {
	c := new(cell)
	gate := make(chan struct{})
	var left atomic.Int32
	left.Store(int32(len(kinds)))
	var wg sync.WaitGroup
	read := func(r *cellReader, v sim.Value) bool {
		if msg := r.observe(v); msg != "" {
			t.Errorf("%v: %s", kinds, msg)
			return false
		}
		return true
	}
	for w, k := range kinds {
		w, k := w, k
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer left.Add(-1)
			r := newCellReader(kinds)
			<-gate
			for i := 1; i <= writes; i++ {
				if !read(r, c.load()) {
					return
				}
				writeKind(c, k, w, i)
				r.wrote(k, w, i)
				if !read(r, c.load()) || !read(r, c.load()) {
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		r := newCellReader(kinds)
		<-gate
		for n, last := 0, false; !last; n++ {
			last = left.Load() == 0 // one more read after the last write
			if n%2 == 0 {
				if !read(r, c.load()) {
					return
				}
			} else if x, ok := c.loadInt(); ok && !read(r, x) {
				return
			}
		}
	}()
	close(gate)
	wg.Wait()
	return c
}

func (k writerKind) String() string { return kindNames[k] }

// TestCellLinearizable races two writers of every pairing of value kinds —
// ints, two struct types, nil, a typed nil pointer — on fresh cells, so each
// round crosses the mode flips its pairing causes with reads and writes in
// flight. Each int and struct value is written once, so a reader that sees X,
// then something else, then X again has caught the register being
// non-atomic; values are also checked whole and of a kind someone writes.
func TestCellLinearizable(t *testing.T) {
	rounds, writes := 40, 2000
	if testing.Short() {
		rounds = 10
	}
	for a := writerKind(0); a < numKinds; a++ {
		for b := a; b < numKinds; b++ {
			kinds := []writerKind{a, b}
			t.Run(kindNames[a]+"+"+kindNames[b], func(t *testing.T) {
				for r := 0; r < rounds && !t.Failed(); r++ {
					// Short rounds dwell on the flips, long ones on the
					// steady state after them.
					raceCell(t, kinds, 1+(writes>>(r%4*3)))
				}
			})
		}
	}
}

// TestCellFirstWriteRace: many goroutines race the first write of a fresh
// cell, one write each — all of one struct type, then of every kind at once.
// Whatever order the claim of the type word, the data store and the flips
// interleave in, readers see only written values, none twice around another,
// and the cell settles on one of them. Writers of one type must leave the
// cell typed: a first-write race is no reason to fall back.
func TestCellFirstWriteRace(t *testing.T) {
	const writers = 8
	same := make([]writerKind, writers)
	mixed := make([]writerKind, writers)
	for w := range same {
		same[w] = kindA
		mixed[w] = writerKind(w) % numKinds
	}
	rounds := 300
	if testing.Short() {
		rounds = 50
	}
	for r := 0; r < rounds && !t.Failed(); r++ {
		for _, kinds := range [][]writerKind{same, mixed} {
			oneType := !slices.ContainsFunc(kinds, func(k writerKind) bool { return k != kindA })
			c := raceCell(t, kinds, 1)
			v := c.load()
			if msg := newCellReader(kinds).observe(v); msg != "" {
				t.Fatalf("%v: settled value: %s", kinds, msg)
			}
			if v2 := c.load(); v2 != v {
				t.Fatalf("%v: settled cell read %v, then %v", kinds, v, v2)
			}
			x, isInt := v.(int)
			if y, ok := c.loadInt(); ok != isInt || y != x {
				t.Fatalf("%v: settled on %v but loadInt = (%d, %v)", kinds, v, y, ok)
			}
			if mode := c.mode.Load(); oneType && mode != modeTyped {
				t.Fatalf("writers of one struct type left the cell in mode %d, want typed", mode)
			}
		}
	}
}

// TestCellRepresentations walks cells through every mode transition — int to
// typed, int to general, typed to general, by each of the values that force
// one — and checks after every write that the generic and typed read
// surfaces agree with what was written, that the mode is the expected one
// and never moves back, and that the counters tell the same story: a boxed
// store for every write that did not land in the packed word, one generalised
// cell exactly when the cell has reached the general box.
func TestCellRepresentations(t *testing.T) {
	type other struct{ X int }
	counters := Telemetry
	h := counters.Handle()
	m := &h
	ptr := &recA{W: 1}
	store := func(v sim.Value) func(*cell) { return func(c *cell) { c.store(v, m) } }
	storeInt := func(x int) func(*cell) { return func(c *cell) { c.storeInt(x, m) } }
	type step struct {
		write func(*cell)
		want  sim.Value
		mode  uint32
	}
	for _, path := range []struct {
		name  string
		steps []step
	}{
		{"int stays packed", []step{
			{store(7), 7, modeInt},
			{store(1 << 40), 1 << 40, modeInt},
			{storeInt(-42), -42, modeInt},
			{storeInt(1<<62 - 1), 1<<62 - 1, modeInt},
		}},
		{"int to general by a struct, then ints in the box", []step{
			{storeInt(3), 3, modeInt},
			{store(recA{1, 2, 3}), recA{1, 2, 3}, modeGeneral},
			{store(5), 5, modeGeneral},
			{storeInt(1 << 40), 1 << 40, modeGeneral},
			{store(nil), nil, modeGeneral},
			{store(other{9}), other{9}, modeGeneral},
		}},
		{"int to general by an int past 63 bits", []step{
			{store(1 << 40), 1 << 40, modeInt},
			{store(1<<62 + 1), 1<<62 + 1, modeGeneral},
			{storeInt(8), 8, modeGeneral},
		}},
		{"fresh to general by a typed int past 63 bits", []step{{storeInt(1 << 62), 1 << 62, modeGeneral}}},
		{"fresh to general by nil", []step{{store(nil), nil, modeGeneral}, {store(recA{}), recA{}, modeGeneral}}},
		{"fresh to general by a typed nil pointer", []step{{store((*recA)(nil)), (*recA)(nil), modeGeneral}}},
		{"typed stays typed", []step{
			{store(recA{1, 2, 3}), recA{1, 2, 3}, modeTyped},
			{store(recA{}), recA{}, modeTyped},
			{store(recA{4, 5, 6}), recA{4, 5, 6}, modeTyped},
		}},
		{"typed on a pointer", []step{{store(ptr), ptr, modeTyped}, {store(ptr), ptr, modeTyped}}},
		{"typed on a string", []step{{store("x"), "x", modeTyped}, {store(""), "", modeTyped}}},
		{"typed on an empty struct", []step{{store(struct{}{}), struct{}{}, modeTyped}}},
		{"typed to general by a second type", []step{
			{store(recA{1, 2, 3}), recA{1, 2, 3}, modeTyped},
			{store(other{1}), other{1}, modeGeneral},
			{store(recA{4, 5, 6}), recA{4, 5, 6}, modeGeneral},
		}},
		{"typed to general by an int", []step{{store(other{1}), other{1}, modeTyped}, {store(9), 9, modeGeneral}}},
		{"typed to general by a typed int", []step{{store(other{1}), other{1}, modeTyped}, {storeInt(9), 9, modeGeneral}}},
		{"typed to general by nil", []step{{store(other{1}), other{1}, modeTyped}, {store(nil), nil, modeGeneral}}},
		{"typed to general by its own nil pointer", []step{{store(ptr), ptr, modeTyped}, {store((*recA)(nil)), (*recA)(nil), modeGeneral}}},
	} {
		c := newStore(0).lookup("x")
		if v := c.load(); v != nil {
			t.Fatalf("%s: fresh cell reads %v, want nil", path.name, v)
		}
		if _, ok := c.loadInt(); ok {
			t.Fatalf("%s: fresh cell loadInt reports a value", path.name)
		}
		boxed, before := int64(0), counters.Snapshot()
		for i, s := range path.steps {
			s.write(c)
			if s.mode != modeInt {
				boxed++
			}
			// Loads are idempotent: a second load sees what the first saw.
			for n := 0; n < 2; n++ {
				if v := c.load(); v != s.want {
					t.Fatalf("%s: step %d: load %d = %v, want %v", path.name, i, n, v, s.want)
				}
			}
			wantInt, wantOK := s.want.(int)
			if x, ok := c.loadInt(); ok != wantOK || x != wantInt {
				t.Fatalf("%s: step %d: loadInt = (%d, %v), want (%d, %v)", path.name, i, x, ok, wantInt, wantOK)
			}
			if mode := c.mode.Load(); mode != s.mode {
				t.Fatalf("%s: step %d: mode %d, want %d", path.name, i, mode, s.mode)
			}
			d := counters.Snapshot().Delta(before)
			if got := d.Get(cCellBoxedStore); got != boxed {
				t.Fatalf("%s: step %d: %d boxed stores counted, want %d", path.name, i, got, boxed)
			}
			if got, want := d.Get(cCellGeneralised), int64(s.mode/modeGeneral); got != want {
				t.Fatalf("%s: step %d: %d generalised cells counted, want %d", path.name, i, got, want)
			}
		}
	}
}

// TestCellStride: the cells one bind mints are consecutive in one array, a
// cell is 128 bytes, and the words a register operation touches of one cell
// are at least a cache line from those of the next, so neighbouring
// registers of a key table do not false-share.
func TestCellStride(t *testing.T) {
	if size := reflect.TypeOf(cell{}).Size(); size != cellSize {
		t.Fatalf("cell is %d bytes, want %d", size, cellSize)
	}
	addr := func(p any) uintptr { return reflect.ValueOf(p).Pointer() }
	keys := []string{"a", "b", "c", "d", "e"}
	cells := make([]*cell, len(keys))
	newStore(len(keys)).bind(keys, cells)
	for i := 1; i < len(cells); i++ {
		prev, next := cells[i-1], cells[i]
		if addr(next)-addr(prev) != cellSize {
			t.Fatalf("cells %d and %d of one bind are %d bytes apart, want %d", i-1, i, addr(next)-addr(prev), cellSize)
		}
		hotEnd := addr(&prev.box) + reflect.TypeOf(&prev.box).Elem().Size()
		for name, first := range map[string]uintptr{
			"mode": addr(&next.mode), "packed": addr(&next.packed), "typ": addr(&next.typ),
			"data": addr(&next.data), "box": addr(&next.box),
		} {
			if first < hotEnd+64 {
				t.Errorf("cell %d's %s starts %d bytes past cell %d's hot words, want ≥ 64", i, name, first-hotEnd, i-1)
			}
		}
		if addr(&prev.mode) != addr(prev) || hotEnd-addr(prev) > 64 {
			t.Errorf("cell %d's hot words span [%d, %d) of the cell, want within its first 64 bytes", i-1, addr(&prev.mode)-addr(prev), hotEnd-addr(prev))
		}
	}
}
