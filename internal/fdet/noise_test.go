package fdet

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// TestNoiseMatchesFreshSource: the pooled, re-seeded generator hands every
// draw shape the histories use — Intn(n), Perm(n), k × Intn, N × Intn(2) —
// exactly the stream a generator built from scratch for (seed, i, t) would,
// whatever the generator drew for its previous holder.
func TestNoiseMatchesFreshSource(t *testing.T) {
	type draws struct {
		intn  int
		perm  []int
		kIntn [3]int
		coins [6]int
	}
	draw := func(rng *rand.Rand, n int) (d draws) {
		d.intn = rng.Intn(n)
		d.perm = rng.Perm(n)
		for j := range d.kIntn {
			d.kIntn[j] = rng.Intn(n)
		}
		for x := range d.coins {
			d.coins[x] = rng.Intn(2)
		}
		return d
	}
	triples := 0
	for seed := int64(-3); seed < 18; seed++ {
		for i := 0; i < 6; i++ {
			for tm := Time(0); tm < 90; tm++ {
				n := 2 + (i+tm)%7
				want := draw(rand.New(rand.NewSource(seed*1_000_003+int64(i)*7_919+int64(tm))), n)
				var got draws
				noise(seed, i, tm, func(rng *rand.Rand) { got = draw(rng, n) })
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("noise(%d, %d, %d) drew %+v, a fresh source %+v", seed, i, tm, got, want)
				}
				triples++
			}
		}
	}
	if triples < 10_000 {
		t.Fatalf("only %d triples compared", triples)
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
