package obs

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
)

var testNames = []string{"alpha", "beta", "gamma"}

func TestCountersBasic(t *testing.T) {
	c := NewTaxonomy(3, testNames)
	h := c.Handle()
	h.Inc(0)
	h.Add(1, 41)
	h.Inc(1)
	s := c.Snapshot()
	if got := s.Get(0); got != 1 {
		t.Errorf("alpha = %d, want 1", got)
	}
	if got := s.Get(1); got != 42 {
		t.Errorf("beta = %d, want 42", got)
	}
	if got := s.Get(2); got != 0 {
		t.Errorf("gamma = %d, want 0", got)
	}
	if got := s.Get(99); got != 0 {
		t.Errorf("out-of-range id = %d, want 0", got)
	}
	m := s.Map()
	if len(m) != 2 || m["alpha"] != 1 || m["beta"] != 42 {
		t.Errorf("Map() = %v, want alpha:1 beta:42 only", m)
	}
}

func TestCountersDelta(t *testing.T) {
	c := NewTaxonomy(3, testNames)
	h := c.Handle()
	h.Add(0, 10)
	before := c.Snapshot()
	h.Add(0, 5)
	h.Inc(2)
	d := c.Snapshot().Delta(before)
	if d.Get(0) != 5 || d.Get(1) != 0 || d.Get(2) != 1 {
		t.Errorf("delta = %v, want alpha:5 gamma:1", d.Map())
	}
	if d2 := c.Snapshot().Delta(Snapshot{}); d2.Get(0) != 15 {
		t.Errorf("delta against zero snapshot = %d, want 15", d2.Get(0))
	}
}

// TestCountersConcurrent hammers many handles against snapshot readers
// under -race: the final total must be exact, and totals must be monotone
// between snapshots taken while writers run.
func TestCountersConcurrent(t *testing.T) {
	c := NewTaxonomy(3, testNames)
	const workers, per = 8, 10000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	var snapWG sync.WaitGroup
	snapWG.Add(1)
	go func() {
		defer snapWG.Done()
		var last int64
		for {
			select {
			case <-stop:
				return
			default:
			}
			s := c.Snapshot()
			total := s.Get(0)
			if total < last {
				t.Errorf("counter went backwards: %d then %d", last, total)
				return
			}
			last = total
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h := c.Handle()
			for i := 0; i < per; i++ {
				h.Inc(0)
				h.Add(1, 2)
			}
		}()
	}
	wg.Wait()
	close(stop)
	snapWG.Wait()
	s := c.Snapshot()
	if got := s.Get(0); got != workers*per {
		t.Errorf("alpha = %d, want %d", got, workers*per)
	}
	if got := s.Get(1); got != workers*per*2 {
		t.Errorf("beta = %d, want %d", got, workers*per*2)
	}
}

func TestBucketBounds(t *testing.T) {
	// Every value must land in a bucket whose [lo, hi) contains it.
	vals := []uint64{0, 1, 7, 8, 9, 15, 16, 17, 255, 256, 1023, 1 << 20, 1<<40 + 12345, 1 << 62, math.MaxInt64}
	for _, v := range vals {
		i := bucketIdx(v)
		lo, hi := bucketLo(i), bucketLo(i+1)
		if v < lo || v >= hi {
			t.Errorf("value %d landed in bucket %d = [%d, %d)", v, i, lo, hi)
		}
	}
	// Bucket bounds must be monotone over every index the mapper emits.
	prev := uint64(0)
	for i := 0; i < histBuckets; i++ {
		lo := bucketLo(i)
		if i > 0 && lo <= prev {
			t.Fatalf("bucketLo not strictly increasing at %d: %d then %d", i, prev, lo)
		}
		prev = lo
	}
}

// TestHistogramOracle checks online percentiles against a sorted-slice
// oracle: every quantile must sit within one sub-bucket (12.5% relative)
// of the exact order statistic.
func TestHistogramOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	h := NewHistogram()
	var oracle []int64
	for i := 0; i < 20000; i++ {
		// Log-uniform samples spanning ~6 decades, the shape of decision
		// latencies across scenarios.
		v := int64(math.Exp(rng.Float64()*14) * 100)
		h.Observe(v)
		oracle = append(oracle, v)
	}
	sort.Slice(oracle, func(i, j int) bool { return oracle[i] < oracle[j] })
	s := h.Snapshot()
	if s.Count != int64(len(oracle)) {
		t.Fatalf("count = %d, want %d", s.Count, len(oracle))
	}
	if s.Max != oracle[len(oracle)-1] {
		t.Errorf("max = %d, want %d", s.Max, oracle[len(oracle)-1])
	}
	for _, q := range []float64{0, 0.25, 0.5, 0.9, 0.99, 0.999, 1} {
		got := s.Quantile(q)
		exact := oracle[int(q*float64(len(oracle)-1))]
		relErr := math.Abs(float64(got)-float64(exact)) / math.Max(float64(exact), 1)
		if relErr > 0.125+1e-9 {
			t.Errorf("q%.3f = %d, exact %d: relative error %.3f > 0.125", q, got, exact, relErr)
		}
	}
}

func TestHistogramEdgeCases(t *testing.T) {
	h := NewHistogram()
	if got := h.Snapshot().Quantile(0.5); got != 0 {
		t.Errorf("empty histogram q50 = %d, want 0", got)
	}
	h.Observe(-5) // clamps to 0
	h.Observe(0)
	h.Observe(math.MaxInt64)
	s := h.Snapshot()
	if s.Count != 3 {
		t.Errorf("count = %d, want 3", s.Count)
	}
	if s.Max != math.MaxInt64 {
		t.Errorf("max = %d, want MaxInt64", s.Max)
	}
	if got := s.Quantile(0); got != 0 {
		t.Errorf("q0 = %d, want 0", got)
	}
	if got := s.Quantile(1); got != math.MaxInt64 {
		t.Errorf("q1 = %d, want MaxInt64 (clamped to observed max)", got)
	}
	if m := s.Mean(); m <= 0 {
		t.Errorf("mean = %f, want > 0", m)
	}
}

// TestHistogramConcurrent verifies exact counts and sums after concurrent
// observers join, under -race with a live snapshot reader.
func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram()
	const workers, per = 8, 5000
	stop := make(chan struct{})
	var snapWG sync.WaitGroup
	snapWG.Add(1)
	go func() {
		defer snapWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = h.Snapshot().Quantile(0.99)
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(int64(w*per + i))
			}
		}()
	}
	wg.Wait()
	close(stop)
	snapWG.Wait()
	s := h.Snapshot()
	if s.Count != workers*per {
		t.Errorf("count = %d, want %d", s.Count, workers*per)
	}
	want := int64(workers*per) * int64(workers*per-1) / 2
	if s.Sum != want {
		t.Errorf("sum = %d, want %d", s.Sum, want)
	}
	if s.Max != workers*per-1 {
		t.Errorf("max = %d, want %d", s.Max, workers*per-1)
	}
	var inBuckets int64
	for _, b := range s.Buckets {
		inBuckets += b.N
	}
	if inBuckets != s.Count {
		t.Errorf("bucket total = %d, want %d", inBuckets, s.Count)
	}
}
