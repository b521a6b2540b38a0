package main

import (
	"math"
	"math/rand/v2"
)

// Zipf draws item indices in [0, n) with a Zipfian popularity of
// exponent theta, using the YCSB generator (Gray et al., "Quickly
// generating billion-record synthetic databases", SIGMOD 1994). Rank r
// is then mapped through a seeded permutation, so the hot items are
// scattered over the keyspace (and over the store's hash shards)
// instead of clustering at the low indices.
type Zipf struct {
	n                        uint64
	theta, alpha, zetan, eta float64
	halfPowTheta             float64
	perm                     []uint32
}

// zeta returns sum_{i=1..n} 1/i^theta.
func zeta(n uint64, theta float64) float64 {
	var s float64
	for i := uint64(1); i <= n; i++ {
		s += 1 / math.Pow(float64(i), theta)
	}
	return s
}

// NewZipf builds the generator for n items (n >= 2, 0 < theta < 1);
// seed fixes the rank-to-index permutation.
func NewZipf(n uint64, theta float64, seed uint64) *Zipf {
	zetan := zeta(n, theta)
	zeta2 := zeta(2, theta)
	z := &Zipf{
		n:            n,
		theta:        theta,
		alpha:        1 / (1 - theta),
		zetan:        zetan,
		eta:          (1 - math.Pow(2/float64(n), 1-theta)) / (1 - zeta2/zetan),
		halfPowTheta: 1 + math.Pow(0.5, theta),
		perm:         make([]uint32, n),
	}
	r := rand.New(rand.NewPCG(seed, 0x5a17f))
	for i := range z.perm {
		z.perm[i] = uint32(i)
	}
	r.Shuffle(len(z.perm), func(i, j int) { z.perm[i], z.perm[j] = z.perm[j], z.perm[i] })
	return z
}

// Rank draws a popularity rank in [0, n): rank 0 is the hottest.
func (z *Zipf) Rank(r *rand.Rand) uint64 {
	u := r.Float64()
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < z.halfPowTheta {
		return 1
	}
	v := uint64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if v >= z.n {
		v = z.n - 1
	}
	return v
}

// Next draws an item index in [0, n).
func (z *Zipf) Next(r *rand.Rand) uint64 { return uint64(z.perm[z.Rank(r)]) }
