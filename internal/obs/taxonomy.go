package obs

import (
	"fmt"
	"slices"
	"sync/atomic"
)

// enabled is the one process-wide telemetry switch, consulted when a
// handle is minted — never per bump.
var enabled atomic.Bool

func init() { enabled.Store(true) }

// SetEnabled turns counter recording on or off for every layer, for
// handles minted AFTER the call (handles resolve at construction, so a
// stubbed run has zero live counter cells on its hot paths). It exists
// for the instrumented-vs-stubbed register benchmark that prices the
// counters, and for the tests that pin that results are identical either
// way; production tooling leaves it on.
func SetEnabled(on bool) { enabled.Store(on) }

// Taxonomy is one instrumented layer's telemetry, declared once as a
// package-level var: a set of named, striped, monotone counters plus the
// gauges and histograms the layer declares on it. The layer owns the ID
// constants and the names; obs owns where the cells live, the switch that
// stubs them, and how they reach a debug endpoint (DebugOptions.Layers).
// All counter recording goes through Handles; Snapshot sums the stripes.
type Taxonomy struct {
	names []string
	// blocks are allocated eagerly so Handle never allocates.
	blocks [counterStripes]block
	next   atomic.Uint64
	gauges map[string]*Gauge
	hists  map[string]*Histogram
}

// NewTaxonomy builds a layer's telemetry over its n counters; the
// CounterID of names[i] is i, and the names are also the /metrics and
// Snapshot.Map keys (snake_case by convention). Pass the constant that ends
// the layer's ID block and a literal keyed by the IDs
// ([]string{cFoo: "foo", ...}) so the two orders cannot drift: a constant
// without a name leaves an empty string or a short slice, and NewTaxonomy
// panics — at package init — on a count that is not n and on an empty or
// duplicate name.
func NewTaxonomy(n CounterID, names []string) *Taxonomy {
	if len(names) != int(n) {
		panic(fmt.Sprintf("obs: taxonomy declares %d names for %d counters", len(names), n))
	}
	t := &Taxonomy{gauges: map[string]*Gauge{}, hists: map[string]*Histogram{}}
	for _, name := range names {
		t.claim(name)
		t.names = append(t.names, name)
	}
	for i := range t.blocks {
		// The block's pads protect only the slice header; the backing
		// arrays are separate allocations that can land adjacent on the
		// heap, so each is over-allocated with a cache line of guard cells
		// on both sides — two stripes' active cells never share a line.
		const guard = 8 // 64B / 8B cells
		arr := make([]atomic.Int64, len(names)+2*guard)
		t.blocks[i].v = arr[guard : guard+len(names) : guard+len(names)]
	}
	return t
}

// claim reserves a series name within the layer.
func (t *Taxonomy) claim(name string) {
	if name == "" || slices.Contains(t.names, name) || t.gauges[name] != nil || t.hists[name] != nil {
		panic(fmt.Sprintf("obs: taxonomy declares series %q, which is empty (an ID constant without a name?) or taken", name))
	}
}

// Gauge declares a gauge of the layer, exported as wfadvice_<name>. Call
// it from a package-level var initialiser.
func (t *Taxonomy) Gauge(name string) *Gauge {
	t.claim(name)
	t.gauges[name] = new(Gauge)
	return t.gauges[name]
}

// Histogram declares a histogram of the layer, exported as
// wfadvice_<name>. Call it from a package-level var initialiser.
func (t *Taxonomy) Histogram(name string) *Histogram {
	t.claim(name)
	t.hists[name] = NewHistogram()
	return t.hists[name]
}

// Handle returns a pre-resolved recording handle on the next stripe
// (round-robin), or the discarding zero Handle while the switch is off.
// Handles are values; store them by value to keep the record path one
// pointer dereference.
func (t *Taxonomy) Handle() Handle {
	if !enabled.Load() {
		return Handle{}
	}
	i := t.next.Add(1) - 1
	return Handle{v: t.blocks[i%counterStripes].v}
}

// Snapshot sums the counter stripes into a Snapshot; per-run numbers are
// deltas of two.
func (t *Taxonomy) Snapshot() Snapshot {
	s := Snapshot{names: t.names, vals: make([]int64, len(t.names))}
	for b := range t.blocks {
		v := t.blocks[b].v
		for i := range s.vals {
			s.vals[i] += v[i].Load()
		}
	}
	return s
}

// Gauges reads every gauge the layer declared, keyed by name.
func (t *Taxonomy) Gauges() map[string]int64 {
	m := make(map[string]int64, len(t.gauges))
	for name, g := range t.gauges {
		m[name] = g.Load()
	}
	return m
}
