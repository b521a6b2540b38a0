package main

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"
)

// nearestRank is the reference: the ceil(q·n)-th smallest value.
func nearestRank(sorted []int64, q float64) int64 {
	r := int(math.Ceil(q * float64(len(sorted))))
	r = min(max(r, 1), len(sorted))
	return sorted[r-1]
}

func TestHistQuantilesMatchSortedReference(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 2))
	dists := map[string]func() int64{
		"small-exact": func() int64 { return r.Int64N(128) },
		"uniform":     func() int64 { return r.Int64N(1_000_000) },
		"lognormal":   func() int64 { return int64(math.Exp(r.NormFloat64()*2 + 10)) },
		"bimodal": func() int64 {
			if r.IntN(100) == 0 {
				return 5_000_000 + r.Int64N(1_000_000)
			}
			return 100_000 + r.Int64N(20_000)
		},
	}
	for name, draw := range dists {
		var h Hist
		vals := make([]int64, 20000)
		for i := range vals {
			vals[i] = draw()
			h.Record(vals[i])
		}
		slices.Sort(vals)
		for _, q := range []float64{0.001, 0.1, 0.5, 0.9, 0.99, 0.999, 1} {
			want := float64(nearestRank(vals, q))
			got := h.Quantile(q)
			if math.Abs(got-want) > want/histSub+1 {
				t.Errorf("%s q=%v: got %v want %v (beyond 1/%d)", name, q, got, want, histSub)
			}
		}
		if h.Count() != uint64(len(vals)) {
			t.Errorf("%s: count %d", name, h.Count())
		}
	}
}

func TestHistBucketLayoutIsContiguous(t *testing.T) {
	prevHi := int64(0)
	for i := 0; i < histBuckets; i++ {
		lo, w := histBounds(i)
		if lo != prevHi {
			t.Fatalf("bucket %d starts at %d, previous ended at %d", i, lo, prevHi)
		}
		if histIndex(lo) != i || histIndex(lo+w-1) != i {
			t.Fatalf("bucket %d [%d,%d) does not map back", i, lo, lo+w)
		}
		prevHi = lo + w
	}
}

func TestHistMergeAndEdges(t *testing.T) {
	var a, b, empty Hist
	if empty.Quantile(0.5) != 0 || empty.Count() != 0 {
		t.Fatal("empty histogram must report 0")
	}
	for v := int64(1); v <= 100; v++ {
		a.Record(v)
		b.Record(v + 100)
	}
	a.Record(-5) // clamps to 0
	a.Merge(&b)
	if a.Count() != 201 || a.Quantile(1) != 200 || a.Quantile(0.0001) != 0 {
		t.Fatalf("merge: n=%d max=%v min=%v", a.Count(), a.Quantile(1), a.Quantile(0.0001))
	}
	var huge Hist
	huge.Record(math.MaxInt64)
	if huge.Quantile(0.5) != math.MaxInt64 {
		t.Fatalf("clamped top bucket must report the observed max, got %v", huge.Quantile(0.5))
	}
}
