package par

import (
	"sync/atomic"
	"testing"
)

// TestEachRunsEveryIndexOnce checks that every index runs exactly once, and
// no other, for pools smaller than, equal to and larger than the index range;
// one worker runs them in increasing order.
func TestEachRunsEveryIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 7, 100} {
		for _, workers := range []int{0, 1, 3, n + 5} {
			calls := make([]atomic.Int32, n)
			var stray, last atomic.Int32
			last.Store(-1)
			Each(n, workers, func(i int) {
				if i < 0 || i >= n {
					stray.Add(1)
					return
				}
				calls[i].Add(1)
				if workers == 1 && last.Swap(int32(i)) != int32(i-1) {
					t.Errorf("n=%d, one worker: index %d out of order", n, i)
				}
			})
			if s := stray.Load(); s != 0 {
				t.Errorf("n=%d workers=%d: %d calls outside [0, n)", n, workers, s)
			}
			for i := range calls {
				if c := calls[i].Load(); c != 1 {
					t.Errorf("n=%d workers=%d: index %d ran %d times", n, workers, i, c)
				}
			}
		}
	}
}
