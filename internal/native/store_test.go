package native

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"wfadvice/internal/fdet"
	"wfadvice/internal/sim"
	"wfadvice/internal/vec"
)

// realisticKeys generates the register-key population of the scenario zoo:
// input registers in/i, direct-solver consensus instances cons/j/* (one
// block per proposer plus the decision register), and Theorem 9 machine
// cells cell/a/s/* with the same block shape.
func realisticKeys(n, k, steps int) []string {
	var keys []string
	for i := 0; i < n; i++ {
		keys = append(keys, fmt.Sprintf("in/%d", i))
	}
	keys = append(keys, "ovec")
	for j := 0; j < k; j++ {
		for p := 0; p < n; p++ {
			keys = append(keys, fmt.Sprintf("cons/%d/blk/%d", j, p))
		}
		keys = append(keys, fmt.Sprintf("cons/%d/dec", j))
	}
	for a := 0; a < n; a++ {
		for s := 0; s < steps; s++ {
			for p := 0; p < 2*n; p++ {
				keys = append(keys, fmt.Sprintf("cell/%d/%d/blk/%d", a, s, p))
			}
			keys = append(keys, fmt.Sprintf("cell/%d/%d/dec", a, s))
		}
	}
	return keys
}

// TestStoreLookupStable: lookup must mint exactly one cell per key no
// matter how many goroutines race on first touch — two processes reading
// "the same register" through different cells would break atomicity.
func TestStoreLookupStable(t *testing.T) {
	st := newStore(0)
	keys := realisticKeys(8, 4, 3)
	const workers = 8
	cells := make([]map[string]*cell, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			mine := make(map[string]*cell, len(keys))
			for _, k := range keys {
				mine[k] = st.lookup(k)
			}
			cells[w] = mine
		}()
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		for _, k := range keys {
			if cells[w][k] != cells[0][k] {
				t.Fatalf("worker %d resolved %q to a different cell", w, k)
			}
		}
	}
}

// TestStoreConcurrentReadersWriters hammers the sharded table from parallel
// writers and readers over an overlapping key set under -race: the shard
// mutexes must serialize map access, and the cells must deliver only values
// some writer actually stored.
func TestStoreConcurrentReadersWriters(t *testing.T) {
	st := newStore(256)
	keys := realisticKeys(8, 2, 2)
	const (
		workers = 8
		rounds  = 500
	)
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				k := keys[(w*rounds+r)%len(keys)]
				c := st.lookup(k)
				if w%2 == 0 {
					c.store(w*rounds+r, &noMetrics)
				} else if v := c.load(&noMetrics); v != nil {
					if _, ok := v.(int); !ok {
						errs <- fmt.Sprintf("read torn value %v from %q", v, k)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestStoreShardDistribution checks the key hash spreads the real scenario
// key shapes across shards at the maximum shard count: with a population
// much larger than the shard count, every shard must be populated and none
// may hold a gross excess over the mean (a degenerate hash would defeat the
// sharding entirely).
func TestStoreShardDistribution(t *testing.T) {
	shardOf := func(key string) uint32 { return keyHash(key) & (storeShards - 1) }
	keys := realisticKeys(16, 8, 4)
	if len(keys) < 32*storeShards {
		t.Fatalf("key population %d too small for a meaningful distribution check", len(keys))
	}
	var counts [storeShards]int
	for _, k := range keys {
		counts[shardOf(k)]++
	}
	mean := len(keys) / storeShards
	for s, c := range counts {
		if c == 0 {
			t.Errorf("shard %d empty over %d realistic keys", s, len(keys))
		}
		if c > 3*mean {
			t.Errorf("shard %d holds %d keys, more than 3x the mean %d", s, c, mean)
		}
	}
	// The hash must be a pure function of the key.
	for _, k := range keys[:64] {
		if shardOf(k) != shardOf(k) {
			t.Fatalf("shardOf(%q) unstable", k)
		}
	}
}

// TestStorePresizeZeroAndLarge: the Registers hint sizes the table — one
// shard for a handful of keys, storeShards for thousands or when no estimate
// was given (zero: keyed operations must not all share one lock) — and
// nothing else: a zero hint and an overshooting hint must behave identically.
func TestStorePresizeZeroAndLarge(t *testing.T) {
	for _, tc := range []struct{ hint, minShards, maxShards int }{
		{0, storeShards, storeShards}, {1, 1, 1}, {9, 1, 2}, {1 << 15, storeShards, storeShards},
	} {
		hint := tc.hint
		st := newStore(hint)
		if n := len(st.shards); n < tc.minShards || n > tc.maxShards || n&(n-1) != 0 {
			t.Errorf("hint %d: %d shards, want a power of two in [%d, %d]", hint, n, tc.minShards, tc.maxShards)
		}
		c := st.lookup("in/0")
		c.store(42, &noMetrics)
		if got := st.lookup("in/0"); got != c {
			t.Fatalf("hint %d: lookup not stable", hint)
		}
		if v := st.lookup("in/0").load(&noMetrics); v == nil || v.(int) != 42 {
			t.Fatalf("hint %d: stored value lost", hint)
		}
	}
}

// TestBindOverlappingTablesShareCells: two processes binding overlapping
// fresh key tables at the same moment must end up on the same cell for
// every key they share — each call mints the cells it finds missing from
// its own backing array, and a key the other process got to first has to
// resolve to that process's cell, not to a second one. Run under -race, on a
// one-shard table (every first touch on the same mutex and map) and on a
// table at the maximum shard count.
func TestBindOverlappingTablesShareCells(t *testing.T) {
	for _, registers := range []int{1, 1 << 15} {
		bindOverlappingTables(t, registers)
	}
}

func bindOverlappingTables(t *testing.T, registers int) {
	const rounds, width, overlap = 50, 96, 64
	var bound [2][rounds]*boundRegs
	var start [rounds]sync.WaitGroup
	for r := range start {
		start[r].Add(2)
	}
	cfg := Config{
		NC: 2, Inputs: vec.Of(1, 2),
		CBody: func(i int) sim.Body {
			return func(e sim.Ops) {
				for r := 0; r < rounds; r++ {
					keys := make([]string, width)
					for k := range keys {
						keys[k] = fmt.Sprintf("r/%d/%d", r, i*(width-overlap)+k)
					}
					start[r].Done()
					start[r].Wait()
					bound[i][r] = e.Bind(keys).(*boundRegs)
				}
				e.Decide(0)
			}
		},
		Pattern: fdet.FailureFree(0), Registers: registers,
	}
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res := rt.Run(time.Minute); res.Reason != ReasonAllDecided {
		t.Fatalf("run ended %v", res.Reason)
	}
	if n := len(rt.store.shards); (registers == 1) != (n == 1) {
		t.Fatalf("Registers %d built %d shards", registers, n)
	}
	for r := 0; r < rounds; r++ {
		a, b := bound[0][r], bound[1][r]
		for k := 0; k < overlap; k++ {
			ka, kb := width-overlap+k, k
			if a.keys[ka] != b.keys[kb] {
				t.Fatalf("round %d: slots %d and %d hold %q and %q", r, ka, kb, a.keys[ka], b.keys[kb])
			}
			if a.cells[ka] != b.cells[kb] {
				t.Fatalf("round %d: %q resolved to two cells", r, a.keys[ka])
			}
		}
		if a.cells[0] == b.cells[width-1] {
			t.Fatalf("round %d: distinct keys share a cell", r)
		}
	}
}

// TestRearmBoundsRetainedTable: keys are the caller's to name, and a config
// factory may name them per instance; a runtime re-armed across such instances
// as a Stress worker re-arms it must not grow with their number. The table is
// kept while it holds at most twice the register estimate (at least
// retainedFloor) and replaced otherwise — and the handles the Envs remembered
// go with it: a handle that outlived its table would write where no keyed
// read looks.
func TestRearmBoundsRetainedTable(t *testing.T) {
	const hint, perRun = 4, 3
	shared := []string{"a", "b"}
	mk := func(seed int64) Config {
		own := fmt.Sprintf("inst/%d", seed)
		return Config{
			NC: 1, Inputs: vec.Of(1), Pattern: fdet.FailureFree(0), Registers: hint,
			CBody: func(int) sim.Body {
				return func(e sim.Ops) {
					r := e.Bind(shared)
					r.Write(0, 1000+int(seed))
					e.Write(own, 1)
					if got := e.Read(shared[0]); got != 1000+int(seed) {
						t.Errorf("instance %d: keyed read of %q = %v after a bound write of %d", seed, shared[0], got, 1000+int(seed))
					}
					e.Decide(1)
				}
			},
		}
	}
	rt := new(Runtime)
	tables := map[*store]bool{}
	for seed := int64(0); seed < 1000; seed++ {
		if err := rt.Reset(mk(seed)); err != nil {
			t.Fatal(err)
		}
		if res := rt.Run(time.Minute); res.Reason != ReasonAllDecided {
			t.Fatalf("instance %d ended %v", seed, res.Reason)
		}
		if held, limit := rt.store.held(), max(2*hint, retainedFloor)+perRun; held > limit {
			t.Fatalf("instance %d: the table holds %d registers, want ≤ %d", seed, held, limit)
		}
		tables[rt.store] = true
	}
	if len(tables) < 2 || len(tables) > 1000/(retainedFloor/perRun) {
		t.Errorf("1000 instances of one fresh key each ran on %d tables, want one per %d or so", len(tables), retainedFloor)
	}
}
