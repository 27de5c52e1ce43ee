package fdet

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// drawAll runs one program of draws through every path math/rand reads a
// source by — Uint64, Int63, Intn (Int31n and Int63n), Perm, Float64 — and
// returns what came out; length scales how many.
func drawAll(r *rand.Rand, length int) []uint64 {
	out := make([]uint64, 0, 16*length)
	for x := 0; x < length; x++ {
		out = append(out, r.Uint64(), uint64(r.Int63()),
			uint64(r.Intn(7)), uint64(r.Intn(1<<20)), uint64(r.Intn(1<<40)),
			math.Float64bits(r.Float64()))
		for _, v := range r.Perm(5) {
			out = append(out, uint64(v))
		}
	}
	return out
}

// lazySeeds lists the seeds TestLazySourceMatchesStandard compares on: the
// corners of Seed's normalisation (0, negatives, multiples of 2³¹−1 and
// their neighbours, the int64 extremes), a run of small seeds around 0 and
// seeds drawn across the whole int64 range.
func lazySeeds() []int64 {
	seeds := []int64{0, 1, -1, 89482311, -89482311, math.MaxInt64, math.MinInt64, math.MinInt64 + 1, math.MaxInt64 - 1}
	for k := int64(-4); k <= 4; k++ {
		seeds = append(seeds, k*lehmerM, k*lehmerM+1, k*lehmerM-1, k*lehmerM+89482311)
	}
	for s := int64(-4000); s < 4000; s++ {
		seeds = append(seeds, s)
	}
	wide := rand.New(rand.NewSource(42))
	for x := 0; x < 2500; x++ {
		seeds = append(seeds, int64(wide.Uint64()))
	}
	return seeds
}

// TestLazySourceMatchesStandard: for every seed, a lazySource draws exactly
// what rand.NewSource(seed) does. One lazySource serves every seed, so each
// comparison also re-seeds a source that has already drawn.
func TestLazySourceMatchesStandard(t *testing.T) {
	lazy := rand.New(new(lazySource))
	seeds := lazySeeds()
	if len(seeds) < 10_000 {
		t.Fatalf("only %d seeds", len(seeds))
	}
	for x, seed := range seeds {
		// Every 50th seed draws ≈ 3 300 words (past the 273-word tap and the
		// 607-word wrap, several times over); the rest a few dozen.
		length := 2
		if x%50 == 0 {
			length = 200
		}
		lazy.Seed(seed)
		got := drawAll(lazy, length)
		want := drawAll(rand.New(rand.NewSource(seed)), length)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: lazy source drew %v…, rand.NewSource %v…", seed, got[:6], want[:6])
		}
	}
}

// TestLazySourceReseedPartway: re-seeding a source in the middle of a
// stream, with its own seed or another, restarts it exactly where a fresh
// source for the new seed starts — words the old seed filled or wrote are
// not read back.
func TestLazySourceReseedPartway(t *testing.T) {
	lazy := rand.New(new(lazySource))
	for _, c := range []struct {
		first, second int64
		drawn         int
	}{
		{7, 7, 1}, {7, 7, 300}, {7, 7, 700}, {7, 8, 150}, {-3, 1 << 40, 2000}, {0, lehmerM, 606},
	} {
		lazy.Seed(c.first)
		for x := 0; x < c.drawn; x++ {
			lazy.Uint64()
		}
		lazy.Seed(c.second)
		got := drawAll(lazy, 120)
		if want := drawAll(rand.New(rand.NewSource(c.second)), 120); !reflect.DeepEqual(got, want) {
			t.Fatalf("re-seeded %d → %d after %d draws: the stream differs from a fresh source's", c.first, c.second, c.drawn)
		}
	}
}

// TestNoiseAllocs: a noise draw re-seeds a pooled generator and builds
// nothing.
func TestNoiseAllocs(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector makes sync.Pool drop entries at random")
	}
	var x int
	tm := Time(0)
	if got := testing.AllocsPerRun(1000, func() {
		noise(3, 1, tm, func(rng *rand.Rand) { x = rng.Intn(5) })
		tm++
	}); got != 0 {
		t.Errorf("noise allocates %.2f objects per draw, want 0", got)
	}
	_ = x
}

// historySink keeps TestHistoryAllocs' histories live, so building one is
// not optimised away.
var historySink History

// TestHistoryAllocs: every family's History is one value, built with at
// most one allocation (the chaos wrapper: one on top of its inner
// history's), and an int-valued history answers a query without
// allocating, before and after stabilization.
func TestHistoryAllocs(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector allocates on its own account")
	}
	const stabilize = 20
	p := NewPattern(4, map[int]Time{0: 5, 3: 30})
	build := func(d Detector) float64 {
		return testing.AllocsPerRun(100, func() { historySink = d.History(p, stabilize, 9) })
	}
	intValued := []Detector{Trivial{}, Omega{}, LiveOmega{}, FirstAlive{}}
	for _, d := range append(intValued, AntiOmegaK{K: 2}, VectorOmegaK{K: 2, GoodPos: 1}, VectorOmegaK{K: 2, GoodPos: -1}) {
		if got := build(d); got > 1 {
			t.Errorf("%s: History allocates %.0f objects, want ≤ 1", d.Name(), got)
		}
	}
	for _, inner := range intValued {
		for _, mode := range []ChaosMode{ChaosFlap, ChaosLie, ChaosDiverge} {
			d := WithChaos(inner, AdviceChaos{Mode: mode, Window: 4})
			if got, in := build(d), build(inner); got > in+1 {
				t.Errorf("%s: History allocates %.0f objects, %.0f more than its inner history's, want ≤ 1 more", d.Name(), got, got-in)
			}
			intValued = append(intValued, d)
		}
	}
	for _, d := range intValued {
		h := d.History(p, stabilize, 9)
		for _, tm := range []Time{3, stabilize + 15} {
			if got := testing.AllocsPerRun(100, func() { h.Query(1, tm) }); got != 0 {
				t.Errorf("%s: Query at %d allocates %.0f objects, want 0", d.Name(), tm, got)
			}
		}
	}
}
