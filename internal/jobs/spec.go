package jobs

import (
	"errors"
	"fmt"

	"repro/internal/core"
)

// ErrBadSpec marks submissions rejected for shape or content; the service
// maps it to 400.
var ErrBadSpec = errors.New("jobs: bad spec")

// maxWeight bounds weighted-round-robin weights so one tenant cannot buy
// effectively-exclusive scheduling with a giant number.
const maxWeight = 64

// Spec is a batch job: the cross product of experiment IDs, a contiguous
// seed range, and a maxk sweep, all at one trial count. Zero-valued
// optional fields take the defaults of core.DefaultConfig (and SeedCount=1,
// MaxKMin=MaxKMax, Weight=1).
type Spec struct {
	Experiments []string `json:"experiments"`
	SeedStart   uint64   `json:"seed_start,omitempty"`
	SeedCount   int      `json:"seed_count,omitempty"`
	Trials      int      `json:"trials,omitempty"`
	MaxKMin     int      `json:"maxk_min,omitempty"`
	MaxKMax     int      `json:"maxk_max,omitempty"`
	// Weight is the job's weighted-round-robin share (1..64, default 1): a
	// weight-3 job is offered three cells for every one a weight-1 job gets
	// while both have work pending.
	Weight int `json:"weight,omitempty"`
}

// Cell is one work item of a job: a single (experiment, config) run,
// content-addressed by the same cache key the /v1/run path uses, which is
// what makes journal replay, result-cache hits, and duplicate submissions
// all line up on the same identity. The key covers only the experiment's
// declared inputs, so cells that differ only in fields it does not read
// (every seed of E11, say) share one key and one journaled body.
type Cell struct {
	Experiment string
	Config     core.Config
	Key        string
}

// normalize fills defaults and validates, returning the canonical spec that
// is journaled. The normalized form is what restore re-expands, so default
// changes in later versions cannot silently re-shape an old journal's jobs.
func (s Spec) normalize(maxCells int) (Spec, error) {
	def := core.DefaultConfig()
	if s.SeedStart == 0 {
		s.SeedStart = def.Seed
	}
	if s.SeedCount == 0 {
		s.SeedCount = 1
	}
	if s.Trials == 0 {
		s.Trials = def.Trials
	}
	if s.MaxKMax == 0 {
		s.MaxKMax = def.MaxK
	}
	if s.MaxKMin == 0 {
		s.MaxKMin = s.MaxKMax
	}
	if s.Weight == 0 {
		s.Weight = 1
	}
	if len(s.Experiments) == 0 {
		return Spec{}, fmt.Errorf("%w: needs at least one experiment", ErrBadSpec)
	}
	seen := map[string]bool{}
	for _, id := range s.Experiments {
		if _, ok := core.Lookup(id); !ok {
			return Spec{}, fmt.Errorf("%w: %w %q", ErrBadSpec, core.ErrUnknownExperiment, id)
		}
		if seen[id] {
			return Spec{}, fmt.Errorf("%w: duplicate experiment %q", ErrBadSpec, id)
		}
		seen[id] = true
	}
	if s.SeedCount < 0 {
		return Spec{}, fmt.Errorf("%w: seed_count %d < 0", ErrBadSpec, s.SeedCount)
	}
	if s.MaxKMin > s.MaxKMax {
		return Spec{}, fmt.Errorf("%w: maxk_min %d > maxk_max %d", ErrBadSpec, s.MaxKMin, s.MaxKMax)
	}
	if s.Weight < 1 || s.Weight > maxWeight {
		return Spec{}, fmt.Errorf("%w: weight %d outside [1,%d]", ErrBadSpec, s.Weight, maxWeight)
	}
	// Validate the extreme configs; every cell's config is one of these
	// fields' combinations, so corner validity covers the grid.
	for _, k := range []int{s.MaxKMin, s.MaxKMax} {
		cfg := core.Config{Seed: s.SeedStart, Trials: s.Trials, MaxK: k}
		if err := cfg.Validate(); err != nil {
			return Spec{}, fmt.Errorf("%w: %w", ErrBadSpec, err)
		}
	}
	n := len(s.Experiments) * s.SeedCount * (s.MaxKMax - s.MaxKMin + 1)
	if n == 0 {
		return Spec{}, fmt.Errorf("%w: spec yields zero cells", ErrBadSpec)
	}
	if n > maxCells {
		return Spec{}, fmt.Errorf("%w: %d cells exceeds the per-job cap %d", ErrBadSpec, n, maxCells)
	}
	return s, nil
}

// cells enumerates the job's work items in the canonical order (experiment,
// then seed offset, then maxk) — deterministic, so journal replay, status
// reports, and streamed tables all agree on cell indices.
func (s Spec) cells() []Cell {
	out := make([]Cell, 0, len(s.Experiments)*s.SeedCount*(s.MaxKMax-s.MaxKMin+1))
	for _, id := range s.Experiments {
		for off := 0; off < s.SeedCount; off++ {
			for k := s.MaxKMin; k <= s.MaxKMax; k++ {
				cfg := core.Config{Seed: s.SeedStart + uint64(off), Trials: s.Trials, MaxK: k}
				out = append(out, Cell{Experiment: id, Config: cfg, Key: core.CacheKey(id, cfg)})
			}
		}
	}
	return out
}
