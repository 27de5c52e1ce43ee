package obs

import (
	"fmt"
	"runtime"
)

// This file is the soak profile's leak audit: at every beat, ServeDebug's
// heartbeat records the process's goroutine count and live heap into a Soak
// (DebugOptions.Soak), and after the run Check audits the series. Long runs
// (`efd-stress -duration 10m -snapshot 30s`) use it to catch slow goroutine
// or heap leaks that a 2s smoke cannot.

// Soak is the series of process gauges a heartbeat records for the leak
// audit. The zero value is an empty series. Call Check only once the
// heartbeat has stopped.
type Soak struct {
	samples []soakSample
}

type soakSample struct {
	goroutines int
	heap       uint64
}

func (s *Soak) add(goroutines int, heap uint64) {
	s.samples = append(s.samples, soakSample{goroutines, heap})
}

// processGauges reads the goroutine count and the live heap in bytes.
// runtime.ReadMemStats stops the world briefly, which at heartbeat cadences
// is negligible.
func processGauges() (goroutines int, heap uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return runtime.NumGoroutine(), ms.HeapAlloc
}

// WithProcess adds the process gauges to a stress CLI's progress document —
// "goroutines" and "heap_mb", the live heap in MiB, the two a soak watches
// — and returns the document.
func WithProcess(doc map[string]any) map[string]any {
	g, heap := processGauges()
	doc["goroutines"], doc["heap_mb"] = g, float64(heap)/(1<<20)
	return doc
}

// Check audits the series for monotone resource growth: it compares the
// low-water marks of the second half of the series and of the first,
// allowing slack for scheduler and GC noise (goroutines: a few stragglers
// from instances still winding down; heap: transient live sets between GC
// cycles). A beat lands anywhere between "every worker is between two
// instances" and "every worker is mid-instance", a whole pool of process
// goroutines apart, so two single samples say little; a leak raises the
// floor, and the floor is what the halves are compared on. A series of
// fewer than two samples passes. The thresholds are deliberately generous —
// this is a leak detector for 10-minute soaks, not a memory benchmark.
func (s *Soak) Check() error {
	n := len(s.samples)
	if n < 2 {
		return nil
	}
	g0, h0 := lowWater(s.samples[:n/2])
	g1, h1 := lowWater(s.samples[n/2:])
	const goroutineSlack = 16
	if g1 > g0+goroutineSlack {
		return fmt.Errorf("obs: goroutine low-water mark grew %d → %d from the first half of the soak to the second (> %d slack): leaked instance or advice-service goroutines",
			g0, g1, goroutineSlack)
	}
	const heapSlack = 64 << 20
	if h1 > h0+heapSlack {
		return fmt.Errorf("obs: heap low-water mark grew %d → %d bytes from the first half of the soak to the second (> %d slack): retained garbage",
			h0, h1, heapSlack)
	}
	return nil
}

// lowWater is the floor of a stretch of a soak series: the fewest goroutines
// and the smallest live heap any of its samples saw.
func lowWater(ss []soakSample) (goroutines int, heap uint64) {
	goroutines, heap = ss[0].goroutines, ss[0].heap
	for _, s := range ss[1:] {
		goroutines, heap = min(goroutines, s.goroutines), min(heap, s.heap)
	}
	return goroutines, heap
}
