package xrand

import (
	"fmt"
	"math"
	"sort"
)

// Dist is a probability distribution over positive integer box sizes
// (measured in blocks). The cache-adaptive smoothing theorem (Theorem 1)
// holds for an arbitrary distribution Σ over box sizes, so experiments
// exercise several qualitatively different families.
type Dist interface {
	// Sample draws one box size using src.
	Sample(src *Source) int64
	// TailProb returns Pr[X >= x]. Lemma 3's quantity p is
	// Pr[|box| >= n]·f(n/4), so the exact tail must be computable.
	TailProb(x int64) float64
	// Mean returns E[X].
	Mean() float64
	// MeanBoundedPow returns E[min(X, n)^e] — the "average n-bounded
	// potential" m_n of the paper (with e = log_b a). Exact, not sampled.
	MeanBoundedPow(n int64, e float64) float64
	// Name identifies the distribution in tables.
	Name() string
}

// ---------------------------------------------------------------------------
// Uniform distribution over {lo, ..., hi}.

// Uniform is the discrete uniform distribution on the integer interval
// [Lo, Hi].
type Uniform struct {
	Lo, Hi int64
}

// NewUniform validates and returns a Uniform distribution.
func NewUniform(lo, hi int64) (Uniform, error) {
	if lo < 1 || hi < lo {
		return Uniform{}, fmt.Errorf("xrand: uniform bounds [%d,%d] invalid (need 1 <= lo <= hi)", lo, hi)
	}
	return Uniform{Lo: lo, Hi: hi}, nil
}

func (u Uniform) Sample(src *Source) int64 {
	return u.Lo + src.Int63n(u.Hi-u.Lo+1)
}

func (u Uniform) TailProb(x int64) float64 {
	if x <= u.Lo {
		return 1
	}
	if x > u.Hi {
		return 0
	}
	return float64(u.Hi-x+1) / float64(u.Hi-u.Lo+1)
}

func (u Uniform) Mean() float64 { return float64(u.Lo+u.Hi) / 2 }

func (u Uniform) MeanBoundedPow(n int64, e float64) float64 {
	total := 0.0
	count := float64(u.Hi - u.Lo + 1)
	for v := u.Lo; v <= u.Hi; v++ {
		total += math.Pow(float64(min64(v, n)), e)
	}
	return total / count
}

func (u Uniform) Name() string { return fmt.Sprintf("uniform[%d,%d]", u.Lo, u.Hi) }

// ---------------------------------------------------------------------------
// Two-point distribution: small boxes with probability 1-p, huge boxes with
// probability p. This is the adversarially-flavoured member of the family —
// almost all boxes are useless, but occasionally a giant one arrives.

// TwoPoint takes value Small with probability 1-PBig and Big with
// probability PBig.
type TwoPoint struct {
	Small, Big int64
	PBig       float64
}

// NewTwoPoint validates and returns a TwoPoint distribution.
func NewTwoPoint(small, big int64, pBig float64) (TwoPoint, error) {
	if small < 1 || big < small {
		return TwoPoint{}, fmt.Errorf("xrand: two-point values (%d,%d) invalid", small, big)
	}
	if pBig < 0 || pBig > 1 {
		return TwoPoint{}, fmt.Errorf("xrand: two-point pBig=%g out of [0,1]", pBig)
	}
	return TwoPoint{Small: small, Big: big, PBig: pBig}, nil
}

func (t TwoPoint) Sample(src *Source) int64 {
	if src.Float64() < t.PBig {
		return t.Big
	}
	return t.Small
}

func (t TwoPoint) TailProb(x int64) float64 {
	switch {
	case x <= t.Small:
		return 1
	case x <= t.Big:
		return t.PBig
	default:
		return 0
	}
}

func (t TwoPoint) Mean() float64 {
	return (1-t.PBig)*float64(t.Small) + t.PBig*float64(t.Big)
}

func (t TwoPoint) MeanBoundedPow(n int64, e float64) float64 {
	return (1-t.PBig)*math.Pow(float64(min64(t.Small, n)), e) +
		t.PBig*math.Pow(float64(min64(t.Big, n)), e)
}

func (t TwoPoint) Name() string {
	return fmt.Sprintf("twopoint{%d,%d;p=%.3g}", t.Small, t.Big, t.PBig)
}

// ---------------------------------------------------------------------------
// Power-law distribution on powers of base: Pr[X = base^k] ∝ base^{-alpha·k},
// k = 0..KMax. Heavy-tailed box sizes stress the large-box analysis while
// staying exactly representable.

// PowerLaw samples base^k with geometric weights.
type PowerLaw struct {
	Base  int64
	KMax  int
	Alpha float64

	probs []float64 // Pr[k], computed once
	cum   []float64 // cumulative
}

// NewPowerLaw validates parameters and precomputes the pmf.
func NewPowerLaw(base int64, kMax int, alpha float64) (*PowerLaw, error) {
	if base < 2 {
		return nil, fmt.Errorf("xrand: power-law base %d < 2", base)
	}
	if kMax < 0 {
		return nil, fmt.Errorf("xrand: power-law kMax %d < 0", kMax)
	}
	if alpha <= 0 {
		return nil, fmt.Errorf("xrand: power-law alpha %g <= 0", alpha)
	}
	p := &PowerLaw{Base: base, KMax: kMax, Alpha: alpha}
	total := 0.0
	raw := make([]float64, kMax+1)
	for k := 0; k <= kMax; k++ {
		raw[k] = math.Pow(float64(base), -alpha*float64(k))
		total += raw[k]
	}
	p.probs = make([]float64, kMax+1)
	p.cum = make([]float64, kMax+1)
	acc := 0.0
	for k := range raw {
		p.probs[k] = raw[k] / total
		acc += p.probs[k]
		p.cum[k] = acc
	}
	return p, nil
}

func (p *PowerLaw) Sample(src *Source) int64 {
	u := src.Float64()
	k := sort.SearchFloat64s(p.cum, u)
	if k > p.KMax {
		k = p.KMax
	}
	return ipow(p.Base, k)
}

func (p *PowerLaw) TailProb(x int64) float64 {
	tail := 0.0
	for k := 0; k <= p.KMax; k++ {
		if ipow(p.Base, k) >= x {
			tail += p.probs[k]
		}
	}
	return tail
}

func (p *PowerLaw) Mean() float64 {
	m := 0.0
	for k := 0; k <= p.KMax; k++ {
		m += p.probs[k] * float64(ipow(p.Base, k))
	}
	return m
}

func (p *PowerLaw) MeanBoundedPow(n int64, e float64) float64 {
	m := 0.0
	for k := 0; k <= p.KMax; k++ {
		m += p.probs[k] * math.Pow(float64(min64(ipow(p.Base, k), n)), e)
	}
	return m
}

func (p *PowerLaw) Name() string {
	return fmt.Sprintf("powerlaw{b=%d,kmax=%d,a=%.2g}", p.Base, p.KMax, p.Alpha)
}

// ---------------------------------------------------------------------------

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// ipow returns base^k for small non-negative k with int64 math.
func ipow(base int64, k int) int64 {
	r := int64(1)
	for i := 0; i < k; i++ {
		r *= base
	}
	return r
}
