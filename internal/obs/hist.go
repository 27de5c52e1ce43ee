package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// This file is the online latency histogram that replaced the native
// stress harness's sorted-sample percentiles: fixed memory (one atomic
// cell per log bucket), a record path of one index computation plus two
// atomic adds and a max CAS, and percentiles — p50 through p999 — read
// live at any point during a run. Buckets are logarithmic with 8
// sub-buckets per power of two, so every reported quantile is within one
// sub-bucket (≤ 12.5% relative) of the exact order statistic; the
// accuracy is asserted against a sorted-slice oracle in hist_test.go.

const (
	// histSubBits sub-buckets per octave: 3 bits = 8 sub-buckets = 12.5%
	// relative resolution, the sweet spot between accuracy and the ~4KB
	// table the full uint64 range then costs.
	histSubBits = 3
	histSub     = 1 << histSubBits
	// Bucket layout, compact and hole-free: values 0..histSub-1 get exact
	// unit buckets; each octave o ≥ histSubBits contributes histSub
	// buckets starting at index (o-histSubBits+1)*histSub.
	histBuckets = (64 - histSubBits + 1) * histSub
)

// bucketIdx maps a non-negative value to its bucket.
func bucketIdx(v uint64) int {
	if v < histSub {
		return int(v)
	}
	o := bits.Len64(v) - 1
	return (o-histSubBits+1)<<histSubBits + int(v>>(uint(o)-histSubBits))&(histSub-1)
}

// bucketLo returns the inclusive lower bound of bucket i; the exclusive
// upper bound of bucket i is bucketLo(i+1).
func bucketLo(i int) uint64 {
	if i < histSub {
		return uint64(i)
	}
	if i >= histBuckets {
		return math.MaxUint64
	}
	o := uint(i>>histSubBits) - 1 + histSubBits
	s := i & (histSub - 1)
	return uint64(histSub+s) << (o - histSubBits)
}

// Histogram is a fixed-size log-bucketed concurrent histogram. Observe is
// safe from any number of goroutines; Snapshot reads concurrently with
// writers (per-bucket counts are exact-at-some-instant, the cross-bucket
// cut is best-effort like Taxonomy.Snapshot).
//
// The zero value is NOT ready; use NewHistogram.
type Histogram struct {
	_       pad
	count   atomic.Int64
	sum     atomic.Int64
	max     atomic.Int64
	_       pad
	buckets *[histBuckets]atomic.Int64
}

// NewHistogram builds an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{buckets: new([histBuckets]atomic.Int64)}
}

// Observe records one value (negative values clamp to zero). The record
// path is bucketIdx plus three atomic adds and a racy-retry max update;
// it never allocates.
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.buckets[bucketIdx(uint64(v))].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		m := h.max.Load()
		if v <= m || h.max.CompareAndSwap(m, v) {
			return
		}
	}
}

// HistBucket is one non-empty bucket of a snapshot: values in [Lo, Hi)
// were observed N times.
type HistBucket struct {
	Lo uint64 `json:"lo"`
	Hi uint64 `json:"hi"`
	N  int64  `json:"n"`
}

// HistSnapshot is a point-in-time reading of a Histogram, the form that
// rides in StressReport JSON (only non-empty buckets serialize, so the
// field stays small, and schema-tolerant parsers that ignore it lose
// nothing structural).
type HistSnapshot struct {
	Count   int64        `json:"count"`
	Sum     int64        `json:"sum"`
	Max     int64        `json:"max"`
	Buckets []HistBucket `json:"buckets,omitempty"`
}

// Snapshot captures the histogram's current state.
func (h *Histogram) Snapshot() *HistSnapshot {
	s := &HistSnapshot{
		Count: h.count.Load(),
		Sum:   h.sum.Load(),
		Max:   h.max.Load(),
	}
	for i := range h.buckets {
		if n := h.buckets[i].Load(); n > 0 {
			s.Buckets = append(s.Buckets, HistBucket{Lo: bucketLo(i), Hi: bucketLo(i + 1), N: n})
		}
	}
	return s
}

// Quantile returns the q-th quantile (q in [0, 1]) with linear
// interpolation inside the containing bucket, clamped to the observed
// max. Zero observations yield zero.
func (s *HistSnapshot) Quantile(q float64) int64 {
	if s == nil || s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	} else if q >= 1 {
		return s.Max
	}
	rank := q * float64(s.Count-1)
	var seen float64
	for _, b := range s.Buckets {
		if rank < seen+float64(b.N) {
			frac := (rank - seen) / float64(b.N)
			v := float64(b.Lo) + frac*(float64(b.Hi)-float64(b.Lo))
			if v > float64(s.Max) {
				return s.Max
			}
			return int64(v)
		}
		seen += float64(b.N)
	}
	return s.Max
}

// Mean returns the arithmetic mean of the observations (exact: the sum is
// tracked outside the buckets).
func (s *HistSnapshot) Mean() float64 {
	if s == nil || s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}
