package obs

import (
	"strings"
	"testing"
)

// TestSoakCheckComparesFloors: a heartbeat beat lands anywhere between every
// worker idling between two instances and every worker mid-instance, so the
// audit compares the low-water marks of the two halves of the series, not
// two samples. A series whose first sample caught the pool empty and whose
// last caught it full is clean (first against last, it read as 17 leaked
// goroutines); a floor that rises is a leak, in goroutines or heap.
func TestSoakCheckComparesFloors(t *testing.T) {
	series := func(heapStep uint64, goroutines ...int) *Soak {
		s := new(Soak)
		for i, g := range goroutines {
			s.add(g, 8<<20+uint64(i)*heapStep)
		}
		return s
	}
	for _, clean := range [][]int{
		{6, 23, 14, 23},                 // empty pool first, full pool last
		{6, 23, 23, 14, 23, 13, 23, 23}, // the same shape, longer
		{23, 23, 6, 6},                  // shrinking
		{23},                            // no series to speak of
	} {
		if err := series(1<<20, clean...).Check(); err != nil {
			t.Errorf("series %v: %v, want clean", clean, err)
		}
	}
	// The floor rising by some eight goroutines a beat under the same noise.
	if err := series(0, 6, 23, 31, 30, 38, 55, 63, 62).Check(); err == nil || !strings.Contains(err.Error(), "goroutine") {
		t.Errorf("rising goroutine floor: Check = %v, want a goroutine leak", err)
	}
	if err := series(32<<20, 6, 23, 14, 23, 6, 23).Check(); err == nil || !strings.Contains(err.Error(), "heap") {
		t.Errorf("heap growing 32 MB a beat: Check = %v, want a heap leak", err)
	}
}
