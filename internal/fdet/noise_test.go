package fdet

import (
	"math"
	"reflect"
	"sync"
	"testing"
)

// chi2 is Pearson's statistic of counts against a uniform expectation, and
// bound its 1 − 10⁻⁴ quantile for len(counts)−1 degrees of freedom
// (Wilson–Hilferty).
func chi2(counts []int, total int) (stat, bound float64) {
	want := float64(total) / float64(len(counts))
	for _, c := range counts {
		d := float64(c) - want
		stat += d * d / want
	}
	df := float64(len(counts) - 1)
	w := 2 / (9 * df)
	return stat, df * math.Pow(1-w+3.72*math.Sqrt(w), 3)
}

// TestNoiseDistribution: intn is uniform on [0, n) across consecutive draws
// of one stream, perm's first element and first ordered pair are uniform,
// and modules' draws are independent of one another and of related seeds:
// over the instance seeds of one stress run (Seed·1 000 003 + r), the modules
// of n = 4 name themselves leader as four independent quarter-chance coins
// would — no module in (¾)⁴ ≈ 0.316 of the seeds, exactly one in
// 4·¼·(¾)³ ≈ 0.422.
func TestNoiseDistribution(t *testing.T) {
	const streams = 20_000
	for _, n := range []int{2, 3, 4, 7, 10} {
		counts := make([]int, n)
		for x := 0; x < streams; x++ {
			s := noise(int64(x/50), x%5, x/5%10)
			for d := 0; d < 3; d++ {
				counts[s.intn(n)]++
			}
		}
		if stat, bound := chi2(counts, 3*streams); stat > bound {
			t.Errorf("intn(%d): χ² = %.1f over %v, want ≤ %.1f", n, stat, counts, bound)
		}
	}
	const n = 5
	first, pairs := make([]int, n), make([]int, n*n-n)
	for x := 0; x < streams; x++ {
		s := noise(7, x%3, x)
		p := s.perm(n)
		first[p[0]]++
		k := p[1]
		if k > p[0] {
			k--
		}
		pairs[p[0]*(n-1)+k]++
	}
	if stat, bound := chi2(first, streams); stat > bound {
		t.Errorf("perm(%d)[0]: χ² = %.1f over %v, want ≤ %.1f", n, stat, first, bound)
	}
	if stat, bound := chi2(pairs, streams); stat > bound {
		t.Errorf("perm(%d)[:2]: χ² = %.1f over %v, want ≤ %.1f", n, stat, pairs, bound)
	}

	const seeds = 100_000
	none, one := 0, 0
	for r := int64(0); r < seeds; r++ {
		self := 0
		for i := 0; i < 4; i++ {
			if s := noise(1_000_003+r, i, 0); s.intn(4) == i {
				self++
			}
		}
		switch self {
		case 0:
			none++
		case 1:
			one++
		}
	}
	t.Logf("over %d seeds: no self-leader in %.4f, one in %.4f", seeds, float64(none)/seeds, float64(one)/seeds)
	for _, c := range []struct {
		what      string
		got, want float64
	}{
		{"no self-leader", float64(none) / seeds, 0.316},
		{"one self-leader", float64(one) / seeds, 0.422},
	} {
		if math.Abs(c.got-c.want) > 0.01 {
			t.Errorf("%s in %.3f of seeds, want %.3f ± 0.01", c.what, c.got, c.want)
		}
	}
}

// TestQueryConcurrentMatchesSequential: histories stay pure functions of
// (i, t) when eight goroutines query them at once — the explorer's parallel
// workers and the native advice service's cooperative publishers do — for
// every detector family and under each chaos wrapper. Run under -race.
func TestQueryConcurrentMatchesSequential(t *testing.T) {
	const (
		stabilize = 40
		horizon   = 60
		workers   = 8
	)
	p := NewPattern(5, map[int]Time{3: 20, 4: 50})
	dets := []Detector{
		Trivial{}, Omega{}, LiveOmega{}, AntiOmegaK{K: 2},
		VectorOmegaK{K: 2, GoodPos: 1}, FirstAlive{},
		WithChaos(Omega{}, AdviceChaos{Mode: ChaosLie, Window: 4, Seed: 9}),
		WithChaos(AntiOmegaK{K: 2}, AdviceChaos{Mode: ChaosLie, Window: 4}),
		WithChaos(VectorOmegaK{K: 2}, AdviceChaos{Mode: ChaosFlap, Window: 4}),
		WithChaos(LiveOmega{}, AdviceChaos{Mode: ChaosDiverge, Window: 4}),
	}
	for _, d := range dets {
		h := d.History(p, stabilize, 11)
		want := make([][]any, p.N)
		for i := range want {
			want[i] = make([]any, horizon)
			for tm := range want[i] {
				want[i][tm] = h.Query(i, tm)
			}
		}
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				// Each worker walks the grid from its own corner so that
				// different (i, t) draws overlap in time.
				for step := 0; step < p.N*horizon; step++ {
					cell := (step*7 + w*horizon) % (p.N * horizon)
					i, tm := cell/horizon, cell%horizon
					if got := h.Query(i, tm); !reflect.DeepEqual(got, want[i][tm]) {
						t.Errorf("%s: concurrent Query(%d, %d) = %v, sequential %v", d.Name(), i, tm, got, want[i][tm])
						return
					}
				}
			}()
		}
		wg.Wait()
	}
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
