package xrand

import (
	"fmt"
	"math"
	"sort"
)

// Weighted is a distribution over explicit (value, weight) pairs. It is the
// exact representation of the box-size multiset of a worst-case profile
// M_{a,b}(n) — sizes b^j with multiplicity a^{k-j} — without materialising
// the profile, which lets the "sample i.i.d. from the adversary's own box
// sizes" experiment scale to sizes whose profiles would not fit in memory.
type Weighted struct {
	values []int64   // ascending
	probs  []float64 // normalised weights, aligned with values
	cum    []float64 // cumulative probabilities
	name   string
}

// NewWeighted validates and normalises the pairs. Values must be positive
// and distinct; weights must be positive.
func NewWeighted(name string, values []int64, weights []float64) (*Weighted, error) {
	if len(values) == 0 || len(values) != len(weights) {
		return nil, fmt.Errorf("xrand: weighted needs matching non-empty values/weights, got %d/%d", len(values), len(weights))
	}
	type pair struct {
		v int64
		w float64
	}
	pairs := make([]pair, len(values))
	var total float64
	for i := range values {
		if values[i] < 1 {
			return nil, fmt.Errorf("xrand: weighted value %d < 1", values[i])
		}
		if weights[i] <= 0 || math.IsInf(weights[i], 0) || math.IsNaN(weights[i]) {
			return nil, fmt.Errorf("xrand: weighted weight %g invalid", weights[i])
		}
		pairs[i] = pair{values[i], weights[i]}
		total += weights[i]
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].v < pairs[j].v })
	for i := 1; i < len(pairs); i++ {
		if pairs[i].v == pairs[i-1].v {
			return nil, fmt.Errorf("xrand: weighted value %d duplicated", pairs[i].v)
		}
	}
	w := &Weighted{name: name}
	acc := 0.0
	for _, p := range pairs {
		w.values = append(w.values, p.v)
		prob := p.w / total
		w.probs = append(w.probs, prob)
		acc += prob
		w.cum = append(w.cum, acc)
	}
	// Guard against floating-point shortfall at the top.
	w.cum[len(w.cum)-1] = 1
	return w, nil
}

// WorstCaseBoxDist returns the exact box-size distribution of M_{a,b}(n):
// Pr[b^j] ∝ a^{k-j} for j = 0..k, n = b^k. Sampling i.i.d. from it is the
// "shuffle the adversary's boxes" smoothing at unbounded scale.
func WorstCaseBoxDist(a, b, n int64) (*Weighted, error) {
	if b < 2 || a < 1 {
		return nil, fmt.Errorf("xrand: invalid (a,b) = (%d,%d)", a, b)
	}
	k := 0
	for m := n; m > 1; m /= b {
		if m%b != 0 {
			return nil, fmt.Errorf("xrand: n = %d not a power of b = %d", n, b)
		}
		k++
	}
	values := make([]int64, 0, k+1)
	weights := make([]float64, 0, k+1)
	size := int64(1)
	for j := 0; j <= k; j++ {
		values = append(values, size)
		weights = append(weights, math.Pow(float64(a), float64(k-j)))
		if j < k {
			size *= b
		}
	}
	return NewWeighted(fmt.Sprintf("wcboxes{a=%d,b=%d,n=%d}", a, b, n), values, weights)
}

// Sample draws u uniform in [0, 1) and returns the value whose cumulative
// step covers it.
//
//lint:hotpath
func (w *Weighted) Sample(src *Source) int64 {
	return w.values[w.search(src.Float64())]
}

// search returns the smallest i with cum[i] >= u for u in [0, 1). It
// scans from the first (smallest) value: the distributions the experiments
// draw from have at most 64 values with most of the mass on the first few
// (7/8 on the first for WorstCaseBoxDist(8, 4, n)), so the scan usually
// stops at once where a binary search would not. The last index ends the
// scan, as cum ends at 1 > u.
func (w *Weighted) search(u float64) int {
	last := len(w.cum) - 1
	i := 0
	for i < last && w.cum[i] < u {
		i++
	}
	return i
}

func (w *Weighted) TailProb(x int64) float64 {
	i := sort.Search(len(w.values), func(i int) bool { return w.values[i] >= x })
	tail := 0.0
	for ; i < len(w.values); i++ {
		tail += w.probs[i]
	}
	return tail
}

func (w *Weighted) Mean() float64 {
	m := 0.0
	for i, v := range w.values {
		m += w.probs[i] * float64(v)
	}
	return m
}

func (w *Weighted) MeanBoundedPow(n int64, e float64) float64 {
	m := 0.0
	for i, v := range w.values {
		m += w.probs[i] * math.Pow(float64(min64(v, n)), e)
	}
	return m
}

func (w *Weighted) Name() string {
	if w.name != "" {
		return w.name
	}
	return fmt.Sprintf("weighted{k=%d}", len(w.values))
}
