package main

import (
	"math"
	"math/rand/v2"
	"testing"
)

func TestZipfRankFrequencies(t *testing.T) {
	const n, draws = 1000, 400000
	z := NewZipf(n, 0.99, 7)
	r := rand.New(rand.NewPCG(3, 4))
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		rk := z.Rank(r)
		if rk >= n {
			t.Fatalf("rank %d out of range", rk)
		}
		counts[rk]++
	}
	// P(rank i) = (1/(i+1)^theta) / zeta(n). The YCSB generator hits
	// ranks 0 and 1 exactly and approximates the rest of the power law,
	// most loosely just past the head; cumulative shares stay close.
	zn := zeta(n, 0.99)
	for i, tol := range []float64{0.05, 0.05, 0.2, 0.2, 0.2} {
		want := draws / math.Pow(float64(i+1), 0.99) / zn
		if got := float64(counts[i]); math.Abs(got-want) > tol*want {
			t.Errorf("rank %d: %v draws, want %.0f ±%v", i, got, want, tol)
		}
	}
	for _, top := range []int{10, 100, 500} {
		got, want := 0.0, 0.0
		for i := 0; i < top; i++ {
			got += float64(counts[i])
			want += draws / math.Pow(float64(i+1), 0.99) / zn
		}
		if math.Abs(got-want) > 0.1*want {
			t.Errorf("top %d ranks: %v draws, want %.0f ±10%%", top, got, want)
		}
	}
	head, tail := 0, 0
	for i := 0; i < 10; i++ {
		head += counts[i]
		tail += counts[n-1-i]
	}
	if head < 20*tail {
		t.Errorf("not skewed: top-10 ranks %d draws vs bottom-10 %d", head, tail)
	}
}

func TestZipfPermutationIsSeededBijection(t *testing.T) {
	const n = 5000
	a, b, c := NewZipf(n, 0.99, 11), NewZipf(n, 0.99, 11), NewZipf(n, 0.99, 12)
	seen := make([]bool, n)
	same := true
	for i := range a.perm {
		if a.perm[i] != b.perm[i] {
			t.Fatal("same seed, different permutation")
		}
		if seen[a.perm[i]] {
			t.Fatalf("index %d mapped twice", a.perm[i])
		}
		seen[a.perm[i]] = true
		same = same && a.perm[i] == c.perm[i]
	}
	if same {
		t.Fatal("different seeds gave the same permutation")
	}
	r1, r2 := rand.New(rand.NewPCG(1, 1)), rand.New(rand.NewPCG(1, 1))
	for i := 0; i < 1000; i++ {
		if x, y := a.Next(r1), b.Next(r2); x != y || x >= n {
			t.Fatalf("draw %d: %d vs %d", i, x, y)
		}
	}
}
