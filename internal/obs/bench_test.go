package obs

import (
	"testing"
	"time"
)

// BenchmarkObsCounter measures the counter record path — one atomic add
// on a pre-resolved stripe cell — serial and with every parallel worker
// on its own handle (the native Env shape). This is a counter's unit price:
// a workload's telemetry costs it times the bumps the workload counts.
func BenchmarkObsCounter(b *testing.B) {
	c := NewTaxonomy(2, []string{"x", "y"})
	b.Run("serial", func(b *testing.B) {
		h := c.Handle()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			h.Inc(0)
		}
	})
	b.Run("parallel", func(b *testing.B) {
		b.RunParallel(func(pb *testing.PB) {
			h := c.Handle()
			for pb.Next() {
				h.Inc(0)
			}
		})
	})
}

// BenchmarkObsHistogram measures the histogram record path: bucket index
// computation plus the count/sum adds and the max CAS.
func BenchmarkObsHistogram(b *testing.B) {
	h := NewHistogram()
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			h.Observe(int64(i) * 37)
		}
	})
	b.Run("parallel", func(b *testing.B) {
		b.RunParallel(func(pb *testing.PB) {
			v := int64(time.Now().UnixNano())
			for pb.Next() {
				v += 12345
				h.Observe(v & (1<<30 - 1))
			}
		})
	})
}

// BenchmarkObsTracerEmit measures one ring emit: the head add, the slot
// claim CAS and four atomic field stores.
func BenchmarkObsTracerEmit(b *testing.B) {
	tr := NewTracer(1<<16, []string{"a", "b"})
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tr.Emit(0, 1, 1, int64(i))
		}
	})
	b.Run("nil", func(b *testing.B) {
		var nt *Tracer
		for i := 0; i < b.N; i++ {
			nt.Emit(0, 1, 1, int64(i))
		}
	})
}
