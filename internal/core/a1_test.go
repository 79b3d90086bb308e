package core

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/adaptivity"
	"repro/internal/matrix"
	"repro/internal/paging"
	"repro/internal/profile"
	"repro/internal/regular"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/xrand"
)

// a1MaterializedPath is A1 computed the materialized way: every trace,
// canonical and shuffled, is built once (a shuffled one drawing its orders
// from rng a single time) and replayed from memory. A synthetic trace is
// replayed once into the square cache and its boxes priced; a real
// MM-Scan trace's eight fresh-address repetitions are replayed into an
// unbounded square replay, counting what the profile's boxes serve. It is
// the oracle for runA1's re-emitted shuffled traces.
func a1MaterializedPath(cfg Config) (*Table, error) {
	cfg = clampMaterializedK(cfg)
	spec := regular.MMScanSpec
	t := &Table{
		ID:     "A1",
		Title:  "Randomised subproblem order vs the worst-case profile (trace backend)",
		Header: []string{"workload", "size", "metric", "canonical", "randomised mean", "ci95"},
	}
	rng := xrand.New(cfg.Seed ^ 0xa1)
	maxK := min(cfg.MaxK, 6)
	trials := min(cfg.Trials, 8)

	var ks, means []float64
	for k := 3; k <= maxK; k++ {
		n := profile.Pow(4, k)
		wc, err := profile.WorstCase(8, 4, n)
		if err != nil {
			return nil, err
		}
		gapOf := func(emit func(trace.Sink) error) (float64, error) {
			tr, err := trace.Materialize(emit)
			if err != nil {
				return 0, err
			}
			src, err := profile.NewSliceSource(wc)
			if err != nil {
				return 0, err
			}
			res, err := adaptivity.MeasureBoxes(spec, n, func(fold func(paging.BoxStat)) error {
				return paging.Replay(paging.SquareReplayName, tr.Emit, int64(tr.Len()), tr.MaxBlock(), src, 0, fold)
			})
			if err != nil {
				return 0, err
			}
			return res.Gap(), nil
		}
		canon, err := gapOf(func(s trace.Sink) error { return regular.EmitSynthetic(spec, n, s) })
		if err != nil {
			return nil, err
		}
		var gaps []float64
		for trial := 0; trial < trials; trial++ {
			g, err := gapOf(func(s trace.Sink) error { return regular.EmitSyntheticShuffled(spec, n, rng, s) })
			if err != nil {
				return nil, err
			}
			gaps = append(gaps, g)
		}
		s := stats.Summarize(gaps)
		t.AddRow("synthetic (full sibling overlap)", fmt.Sprintf("n=4^%d", k), "gap", canon, s.Mean, s.CI95())
		ks = append(ks, float64(k))
		means = append(means, s.Mean)
	}
	fit, err := stats.LinearFit(ks, means)
	if err != nil {
		return nil, err
	}

	const bw = 8
	for _, dim := range []int{32, 64, 128} {
		multiplies := func(tr *trace.Trace) (float64, error) {
			src, nBoxes, _, err := matrix.WorstCaseBoxStream(dim, bw)
			if err != nil {
				return 0, err
			}
			var closed, served int64
			q := paging.NewSquareStream(src, 0, func(b paging.BoxStat) {
				if closed++; closed <= nBoxes {
					served += b.Refs
				}
			})
			for r := 0; r < 8; r++ {
				trace.Replay(tr, trace.OffsetSink{S: q, Shift: int64(r) * (tr.MaxBlock() + 1)})
			}
			if err := q.Finish(); err != nil {
				return 0, err
			}
			return float64(int(served) / tr.Len()), nil
		}
		canonTr, err := trace.Materialize(func(s trace.Sink) error { return matrix.EmitMulScan(dim, bw, s) })
		if err != nil {
			return nil, err
		}
		canon, err := multiplies(canonTr)
		if err != nil {
			return nil, err
		}
		var counts []float64
		for trial := 0; trial < trials; trial++ {
			tr, err := trace.Materialize(func(s trace.Sink) error { return matrix.EmitMulScanShuffled(dim, bw, rng, s) })
			if err != nil {
				return nil, err
			}
			c, err := multiplies(tr)
			if err != nil {
				return nil, err
			}
			counts = append(counts, c)
		}
		s := stats.Summarize(counts)
		t.AddRow("real MM-Scan", fmt.Sprintf("dim=%d", dim), "multiplies", canon, s.Mean, s.CI95())
	}

	t.Note = fmt.Sprintf("the answer to the paper's open question is workload-dependent: with full working-set overlap between same-slot siblings, random order lets boxes serve several siblings and the gap collapses to O(1) (slope %+.3f/level vs the canonical +1.0); but for real MM-Scan — whose products write distinct temporaries — random order still completes exactly the canonical number of multiplies on the adversary's profile. Order randomisation alone does not defeat M_{a,b}.", fit.Beta)
	return t, nil
}

// TestA1MatchesMaterializedPath checks A1's table, whose shuffled traces
// are re-emitted from a rewound generator for every replay, against the
// materialize-once computation at several seeds.
func TestA1MatchesMaterializedPath(t *testing.T) {
	seeds := []uint64{1, 2, 3, 4, 5, 6, DefaultConfig().Seed}
	if testing.Short() {
		seeds = seeds[:2]
	}
	for _, seed := range seeds {
		cfg := Config{Seed: seed, Trials: 2, MaxK: 4}
		tb, err := runA1(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := a1MaterializedPath(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := tb.FormatTSV(), want.FormatTSV(); got != want {
			t.Errorf("%+v: streamed table\n%s\nmaterialized table\n%s", cfg, got, want)
		}
	}
}

// TestTraceExperimentsAllocationBound pins the streamed worst-case counts
// and A7's in-place profile reads: A1 and A4 re-emit their traces instead
// of materializing them (about 30 and 18 MB when they did), and A7 reads
// each profile's boxes in place instead of copying them (about 14 MB).
func TestTraceExperimentsAllocationBound(t *testing.T) {
	cfg := Config{Seed: 1, Trials: 2, MaxK: 4}
	for _, c := range []struct {
		run   func(Config) (*Table, error)
		id    string
		bound uint64
	}{
		{runA1, "A1", 4 << 20},
		{runA4, "A4", 4 << 20},
		{runA7, "A7", 11 << 20},
	} {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		if _, err := c.run(cfg); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got > c.bound {
			t.Errorf("%s allocated %.1f MB, want <= %.0f MB", c.id, float64(got)/(1<<20), float64(c.bound)/(1<<20))
		}
	}
}
