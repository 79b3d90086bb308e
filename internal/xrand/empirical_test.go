package xrand

import (
	"fmt"
	"math"
	"sort"
)

// Empirical is the empirical distribution of an explicit multiset of
// sizes, sampled with replacement: a Dist whose tail and moments the tests
// can compute exactly.
type Empirical struct {
	sizes []int64 // sorted ascending
	name  string
}

// NewEmpirical copies sizes (which must be non-empty and positive) into an
// empirical distribution.
func NewEmpirical(name string, sizes []int64) (*Empirical, error) {
	if len(sizes) == 0 {
		return nil, fmt.Errorf("xrand: empirical distribution needs at least one size")
	}
	cp := make([]int64, len(sizes))
	copy(cp, sizes)
	for _, v := range cp {
		if v < 1 {
			return nil, fmt.Errorf("xrand: empirical size %d < 1", v)
		}
	}
	sort.Slice(cp, func(i, j int) bool { return cp[i] < cp[j] })
	return &Empirical{sizes: cp, name: name}, nil
}

func (e *Empirical) Sample(src *Source) int64 {
	return e.sizes[src.Intn(len(e.sizes))]
}

func (e *Empirical) TailProb(x int64) float64 {
	// First index with size >= x.
	i := sort.Search(len(e.sizes), func(i int) bool { return e.sizes[i] >= x })
	return float64(len(e.sizes)-i) / float64(len(e.sizes))
}

func (e *Empirical) Mean() float64 {
	total := 0.0
	for _, v := range e.sizes {
		total += float64(v)
	}
	return total / float64(len(e.sizes))
}

func (e *Empirical) MeanBoundedPow(n int64, ex float64) float64 {
	total := 0.0
	for _, v := range e.sizes {
		total += math.Pow(float64(min64(v, n)), ex)
	}
	return total / float64(len(e.sizes))
}

func (e *Empirical) Name() string {
	if e.name != "" {
		return e.name
	}
	return fmt.Sprintf("empirical{n=%d}", len(e.sizes))
}

// Len reports the number of samples backing the empirical distribution.
func (e *Empirical) Len() int { return len(e.sizes) }
