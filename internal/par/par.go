// Package par runs an index loop on a pool of goroutines. The experiment
// engine's cells, the explorer's sub-trees and a seed sweep's seeds all run
// on it: the pool decides only which goroutine runs an index, and each
// caller writes index i's result to slot i (or merges it
// order-independently), so what a caller returns is the same at any worker
// count.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Each calls f(i) exactly once for every i in [0, n), on a pool of workers
// goroutines (0 or negative means GOMAXPROCS; the pool never exceeds n).
// Indices are handed out in increasing order. Each returns after every call
// has returned.
func Each(n, workers int, f func(i int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var (
		next atomic.Int64 // the next index to hand out
		wg   sync.WaitGroup
	)
	for range min(workers, n) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				f(i)
			}
		}()
	}
	wg.Wait()
}
