package obs

import (
	"fmt"
	"math/bits"
	"strings"
	"sync/atomic"
)

// SizeHistogram is the unitless sibling of Histogram: a fixed-bucket
// distribution of small counts (batch sizes, gather-window occupancy,
// queue drains) rather than durations. Buckets are powers of two from 1
// to 1024 plus an overflow bucket, matching the shapes the KDC's batch
// pipeline produces (1..64 requests per UDP ring drain). Observation is a
// few atomic adds — no locks, no allocation — and the zero value is
// ready to use, like the other metric kinds.

// SizeHistBuckets is the number of size-histogram buckets: bounds
// 1<<i for i in 0..10, plus one overflow bucket.
const SizeHistBuckets = 12

// SizeBucketBound returns the inclusive upper bound of bucket i, or -1
// for the overflow bucket.
func SizeBucketBound(i int) int64 {
	if i >= SizeHistBuckets-1 {
		return -1 // +Inf
	}
	return 1 << uint(i)
}

// sizeBucketIndex maps a value to the smallest bucket whose bound holds
// it, saturating at the overflow bucket.
func sizeBucketIndex(n int64) int {
	if n <= 1 {
		return 0
	}
	idx := bits.Len64(uint64(n - 1))
	if idx >= SizeHistBuckets {
		idx = SizeHistBuckets - 1
	}
	return idx
}

// SizeHistogram records a distribution of counts. The zero value is
// ready to use.
type SizeHistogram struct {
	count   atomic.Uint64
	sum     atomic.Int64
	max     atomic.Int64
	buckets [SizeHistBuckets]atomic.Uint64
}

// Observe records one count. Negative values count as zero.
//
//kerb:hotpath
func (h *SizeHistogram) Observe(n int64) {
	if n < 0 {
		n = 0
	}
	h.count.Add(1)
	h.sum.Add(n)
	for {
		old := h.max.Load()
		if n <= old || h.max.CompareAndSwap(old, n) {
			break
		}
	}
	h.buckets[sizeBucketIndex(n)].Add(1)
}

// Count returns how many observations have been recorded.
func (h *SizeHistogram) Count() uint64 { return h.count.Load() }

// SizeHistogramSnapshot is a point-in-time copy of a SizeHistogram.
type SizeHistogramSnapshot struct {
	Count   uint64
	Sum     int64
	Max     int64
	Buckets [SizeHistBuckets]uint64
}

// Snapshot captures a monitoring view; like Histogram.Snapshot it loads
// buckets one by one — never torn, never blocking the writers.
func (h *SizeHistogram) Snapshot() SizeHistogramSnapshot {
	s := SizeHistogramSnapshot{
		Count: h.count.Load(),
		Sum:   h.sum.Load(),
		Max:   h.max.Load(),
	}
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	return s
}

// Mean returns the average observed count.
func (s *SizeHistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Quantile returns an upper bound on the q-quantile (0 < q <= 1): the
// bound of the first bucket whose cumulative count reaches q·Count.
// Observations in the overflow bucket report the recorded maximum.
func (s *SizeHistogramSnapshot) Quantile(q float64) int64 {
	if s.Count == 0 {
		return 0
	}
	target := uint64(q*float64(s.Count) + 0.5)
	if target < 1 {
		target = 1
	}
	if target > s.Count {
		target = s.Count
	}
	cum := uint64(0)
	for i, n := range s.Buckets {
		cum += n
		if cum >= target {
			if b := SizeBucketBound(i); b >= 0 {
				return b
			}
			return s.Max
		}
	}
	return s.Max
}

// RegisterSizeHistogram attaches an existing size histogram (typically a
// zero-value field embedded in another package's struct) under name.
func (r *Registry) RegisterSizeHistogram(name string, h *SizeHistogram) {
	if r == nil || h == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.entries[name] = entry{sh: h}
}

// writeSizeHistogramText renders a size histogram in the /metrics text
// format: _count/_sum/_max/_p50/_p99 scalars plus cumulative
// name_bucket{le="bound"} lines — the unitless analogue of the duration
// histogram's le_ns buckets, distinguished by the label name so
// cmd/kstat can render each kind appropriately.
func writeSizeHistogramText(b *strings.Builder, name string, s SizeHistogramSnapshot) {
	fmt.Fprintf(b, "%s_count %d\n", name, s.Count)
	fmt.Fprintf(b, "%s_sum %d\n", name, s.Sum)
	fmt.Fprintf(b, "%s_max %d\n", name, s.Max)
	fmt.Fprintf(b, "%s_p50 %d\n", name, s.Quantile(0.50))
	fmt.Fprintf(b, "%s_p99 %d\n", name, s.Quantile(0.99))
	last := -1
	for i, n := range s.Buckets {
		if n != 0 {
			last = i
		}
	}
	cum := uint64(0)
	for i := 0; i <= last; i++ {
		cum += s.Buckets[i]
		if bound := SizeBucketBound(i); bound >= 0 {
			fmt.Fprintf(b, "%s_bucket{le=\"%d\"} %d\n", name, bound, cum)
		} else {
			fmt.Fprintf(b, "%s_bucket{le=\"+Inf\"} %d\n", name, cum)
		}
	}
}
