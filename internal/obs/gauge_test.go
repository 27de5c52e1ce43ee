package obs

import (
	"sync"
	"testing"
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
