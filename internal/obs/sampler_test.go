package obs

import (
	"sync"
	"testing"
	"time"
)

func TestGauge(t *testing.T) {
	var g Gauge
	if got := g.Load(); got != 0 {
		t.Fatalf("zero gauge = %d, want 0", got)
	}
	g.Set(7)
	if got := g.Load(); got != 7 {
		t.Errorf("after Set(7) = %d", got)
	}
	if got := g.Add(-3); got != 4 {
		t.Errorf("Add(-3) = %d, want 4", got)
	}
	g.SetMax(2) // below current: no-op
	if got := g.Load(); got != 4 {
		t.Errorf("SetMax(2) lowered gauge to %d", got)
	}
	g.SetMax(9)
	if got := g.Load(); got != 9 {
		t.Errorf("SetMax(9) = %d, want 9", got)
	}
}

// TestGaugeSetMaxConcurrent races SetMax from many goroutines: the final
// value must be the global maximum.
func TestGaugeSetMaxConcurrent(t *testing.T) {
	var g Gauge
	const workers, per = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				g.SetMax(int64(w*per + i))
			}
		}()
	}
	wg.Wait()
	if got := g.Load(); got != workers*per-1 {
		t.Errorf("max = %d, want %d", got, workers*per-1)
	}
}

func TestSamplerWindows(t *testing.T) {
	c := NewTaxonomy(3, testNames)
	h := c.Handle()
	h.Add(0, 10)
	s := NewSampler(c)
	// Bumps after the sampler anchors land in the first window's delta;
	// the pre-anchor 10 shows only in the running total.
	h.Add(0, 5)
	h.Inc(2)
	time.Sleep(2 * time.Millisecond) // keep Span strictly positive
	w := s.Sample()
	if got := w.Total.Get(0); got != 15 {
		t.Errorf("total alpha = %d, want 15", got)
	}
	if got := w.Delta.Get(0); got != 5 {
		t.Errorf("window delta alpha = %d, want 5", got)
	}
	if got := w.Delta.Get(2); got != 1 {
		t.Errorf("window delta gamma = %d, want 1", got)
	}
	if w.Span <= 0 || w.Elapsed < w.Span {
		t.Errorf("Span = %v, Elapsed = %v: want 0 < Span <= Elapsed", w.Span, w.Elapsed)
	}
	rates := w.Rates()
	if _, ok := rates["beta"]; ok {
		t.Errorf("Rates() includes zero-delta counter: %v", rates)
	}
	if rates["alpha"] <= 0 {
		t.Errorf("Rates()[alpha] = %f, want > 0", rates["alpha"])
	}
	// A second window sees only what happened since the first.
	h.Inc(1)
	time.Sleep(2 * time.Millisecond)
	w2 := s.Sample()
	if got := w2.Delta.Get(0); got != 0 {
		t.Errorf("second window delta alpha = %d, want 0", got)
	}
	if got := w2.Delta.Get(1); got != 1 {
		t.Errorf("second window delta beta = %d, want 1", got)
	}
	if w2.Elapsed <= w.Elapsed {
		t.Errorf("Elapsed not monotone: %v then %v", w.Elapsed, w2.Elapsed)
	}
}
