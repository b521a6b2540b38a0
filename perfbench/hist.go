package main

import (
	"math"
	"math/bits"
)

// Hist is a fixed-bucket log-linear histogram of non-negative int64
// values (nanoseconds, bytes, counts). Values below 128 get exact
// buckets; above that every power-of-two octave is split into 128
// equal buckets, so a reported percentile is within 1/128 (0.8%) of
// the true order statistic. The bucket layout is fixed at compile time
// (no allocation per Record, stdlib only); the zero value is ready.
type Hist struct {
	counts   [histBuckets]uint64
	n        uint64
	min, max int64
}

const (
	histSubBits = 7
	histSub     = 1 << histSubBits // buckets per octave
	histMaxBits = 47               // values >= 2^47 (~39 hours in ns) clamp into the top bucket
	histBuckets = (histMaxBits - histSubBits + 1) * histSub
)

// histIndex maps v to its bucket. For v in [2^k, 2^(k+1)) with k >= 7,
// the top 8 significant bits pick the bucket; below 128 v is its own
// bucket, which keeps the layout contiguous at the seam.
func histIndex(v int64) int {
	if v < histSub {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	if v >= 1<<histMaxBits {
		return histBuckets - 1
	}
	k := bits.Len64(uint64(v)) - 1 // v in [2^k, 2^(k+1))
	shift := k - histSubBits
	return (k-histSubBits+1)*histSub + int(v>>shift) - histSub
}

// histBounds returns bucket i's lowest value and width.
func histBounds(i int) (lo, width int64) {
	if i < histSub {
		return int64(i), 1
	}
	g := i / histSub // octave group, k = g + histSubBits - 1
	shift := g - 1
	sub := int64(i%histSub + histSub)
	return sub << shift, 1 << shift
}

// Record adds one value.
func (h *Hist) Record(v int64) {
	if v < 0 {
		v = 0
	}
	if h.n == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.counts[histIndex(v)]++
	h.n++
}

// Merge adds o's samples to h.
func (h *Hist) Merge(o *Hist) {
	if o.n == 0 {
		return
	}
	if h.n == 0 || o.min < h.min {
		h.min = o.min
	}
	if o.max > h.max {
		h.max = o.max
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// Count returns the number of recorded values.
func (h *Hist) Count() uint64 { return h.n }

// Quantile returns the nearest-rank q-quantile (0 < q <= 1): the value
// of the ceil(q·n)-th smallest sample, reported as the middle of its
// bucket and clamped to the observed min/max. Empty histograms give 0.
func (h *Hist) Quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	if rank > h.n {
		rank = h.n
	}
	var seen uint64
	for i, c := range h.counts {
		seen += c
		if seen >= rank {
			lo, w := histBounds(i)
			v := float64(lo) + float64(w-1)/2
			return math.Min(math.Max(v, float64(h.min)), float64(h.max))
		}
	}
	return float64(h.max)
}
