package core

import (
	"fmt"
	"math"

	"repro/internal/engine"
	"repro/internal/matrix"
	"repro/internal/paging"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/xrand"
)

// This file implements the trace/paging-backed experiments: E9 (MM-Scan vs
// MM-InPlace on the worst-case profile), E10 (the No-Catch-up Lemma), and
// E11 (DAM-model sanity: MM-Scan's I/O complexity under fixed LRU).

func init() {
	register(Experiment{
		ID:      "E9",
		Source:  "Section 3 (MM-Scan vs MM-InPlace)",
		Summary: "On MM-Scan's worst-case profile, MM-Scan completes exactly 1 multiply while MM-InPlace completes Ω(log(N/B)) of them",
		Inputs:  InputMaxK,
		Run:     runE9,
	})
	register(Experiment{
		ID:      "E10",
		Source:  "Lemma 2 (No-Catch-up)",
		Summary: "Randomised check: starting a square sequence earlier in a reference trace never finishes later",
		Inputs:  InputSeed | InputTrials,
		Run:     runE10,
	})
	register(Experiment{
		ID:      "E11",
		Source:  "Section 3 (DAM optimality of MM-Scan)",
		Summary: "Fixed-cache LRU replay of the MM-Scan trace: misses scale as Θ(N^{3/2}/(√M·B))",
		Inputs:  InputNone,
		Run:     runE11,
	})
}

func runE9(cfg Config) (*Table, error) {
	const bw = 8
	t := &Table{
		ID:     "E9",
		Title:  "Multiplies completed within MM-Scan's worst-case profile (B=8 words/block)",
		Header: []string{"dim", "N words", "profile boxes", "profile IOs", "MM-Scan", "MM-InPlace"},
	}
	dims := []int{32, 64, 128, 256}
	if cfg.MaxK >= 7 {
		dims = append(dims, 512)
	}
	if cfg.MaxK >= 8 {
		// Only reachable above the seed config: nothing on this path is
		// materialized — traces are re-emitted per repetition and the
		// worst-case profile is streamed — so these rungs cost MBs where a
		// materialized repeat would have needed ~12 GB (dim 1024) to well
		// past a TB (dim 4096). dim 4096's profile alone would be ~1.4e8
		// boxes materialized; the odometer stream keeps it O(log dim).
		dims = append(dims, 1024)
	}
	if cfg.MaxK >= 9 {
		dims = append(dims, 2048)
	}
	if cfg.MaxK >= 10 {
		dims = append(dims, 4096)
	}
	var lastScan, lastInp, firstInp int64
	for i, dim := range dims {
		_, nBoxes, duration, err := matrix.WorstCaseBoxStream(dim, bw)
		if err != nil {
			return nil, err
		}
		// Enough repetitions to comfortably exceed the profile's capacity for
		// both algorithms at every size.
		reps := 12
		if dim >= 1024 {
			reps = 16
		}
		scanCount, err := mmScanRuns(dim, bw, reps, func(s trace.Sink) error { return matrix.EmitMulScan(dim, bw, s) })
		if err != nil {
			return nil, err
		}
		inpCount, err := mmScanRuns(dim, bw, reps, func(s trace.Sink) error { return matrix.EmitMulInPlace(dim, bw, s) })
		if err != nil {
			return nil, err
		}
		t.AddRow(dim, dim*dim, nBoxes, duration, scanCount, inpCount)
		lastScan, lastInp = scanCount, inpCount
		if i == 0 {
			firstInp = inpCount
		}
	}
	t.Note = fmt.Sprintf("MM-Scan stays at %d multiply per profile; MM-InPlace grows from %d to %d — one extra multiply per doubling of dim, the Ω(log(N/B)) shape.", lastScan, firstInp, lastInp)
	return t, nil
}

// mmScanRuns counts how many of reps runs of emit MM-Scan's worst-case
// profile for dim×dim matrices completes, read from its first box.
func mmScanRuns(dim int, bw int64, reps int, emit func(trace.Sink) error) (int64, error) {
	src, nBoxes, _, err := matrix.WorstCaseBoxStream(dim, bw)
	if err != nil {
		return 0, err
	}
	return paging.Completions(emit, src, nBoxes, reps)
}

// e10Trial is one No-Catch-up trial: a random trace, a square-box
// sequence, and a start pair iPrime <= i.
type e10Trial struct {
	tr        *trace.Trace
	boxes     []int64
	i, iPrime int
}

// e10Trials derives every trial's inputs serially from cfg.Seed — the RNG
// call order is part of the determinism contract. E10's verdict (0
// violations) is the same at every seed, so TestE10SamplesMoveWithSeed
// checks these samples, not the table, to see that E10 reads the seed.
func e10Trials(cfg Config) []e10Trial {
	rng := xrand.New(cfg.Seed ^ 0x10)
	ts := make([]e10Trial, cfg.Trials*100)
	for trial := range ts {
		refs := 20 + rng.Intn(1500)
		b := &trace.Builder{}
		for i := 0; i < refs; i++ {
			b.Access(rng.Int63n(48))
		}
		tr := b.Build()
		nBoxes := 1 + rng.Intn(8)
		boxes := make([]int64, nBoxes)
		for i := range boxes {
			boxes[i] = 1 + rng.Int63n(24)
		}
		i := rng.Intn(refs)
		iPrime := rng.Intn(i + 1)
		ts[trial] = e10Trial{tr: tr, boxes: boxes, i: i, iPrime: iPrime}
	}
	return ts
}

func runE10(cfg Config) (*Table, error) {
	// Sample every trial serially, then evaluate the trials on the engine
	// pool. Each start-pair replay halts where its boxes run out (the
	// Stopper early stop), so a trial costs O(references served), not
	// O(trace suffix).
	ts := e10Trials(cfg)
	trials := len(ts)
	violated := make([]bool, trials)
	g := engine.NewGroup().WithContext(cfg.Context())
	if err := g.Map(trials, func(trial, _ int) error {
		tl := ts[trial]
		endLate, err := paging.SquareRunFrom(tl.tr, tl.i, tl.boxes)
		if err != nil {
			return err
		}
		endEarly, err := paging.SquareRunFrom(tl.tr, tl.iPrime, tl.boxes)
		if err != nil {
			return err
		}
		violated[trial] = endEarly > endLate
		return nil
	}); err != nil {
		return nil, err
	}
	violations := 0
	for _, v := range violated {
		if v {
			violations++
		}
	}
	t := &Table{
		ID:     "E10",
		Title:  "No-Catch-up Lemma: delayed starts never finish earlier",
		Header: []string{"randomised trials", "violations"},
	}
	t.AddRow(trials, violations)
	if violations > 0 {
		t.Note = "VIOLATIONS FOUND — the square-cache semantics break Lemma 2!"
	} else {
		t.Note = "no counterexample: for every sampled trace, square sequence, and start pair i' <= i, the earlier start finished no later."
	}
	finishMetrics(t, g)
	return t, nil
}

func runE11(cfg Config) (*Table, error) {
	const bw = 8
	dim := 128
	tr, err := trace.Materialize(func(s trace.Sink) error { return matrix.EmitMulScan(dim, bw, s) })
	if err != nil {
		return nil, err
	}
	nWords := float64(dim * dim)
	t := &Table{
		ID:     "E11",
		Title:  "DAM sanity: MM-Scan trace under fixed-capacity LRU (dim 128, B=8)",
		Header: []string{"M (blocks)", "LRU misses", "OPT misses", "LRU/OPT", "misses·√(M·B)·B/N^1.5"},
	}
	optRec, err := paging.RecordOPT(tr.Emit, int64(tr.Len()), tr.MaxBlock())
	if err != nil {
		return nil, err
	}
	var logM, logMiss []float64
	for _, m := range []int64{16, 32, 64, 128, 256, 512, 1024} {
		lru, err := paging.RunPolicyFixed("lru", tr, m)
		if err != nil {
			return nil, err
		}
		opt, err := optRec.Fixed(m)
		if err != nil {
			return nil, err
		}
		mWords := float64(m * bw)
		konst := float64(lru) * math.Sqrt(mWords) * bw / math.Pow(nWords, 1.5)
		t.AddRow(m, lru, opt, float64(lru)/float64(opt), konst)
		// Below the tall-cache threshold the cache cannot even hold a base
		// case's working set and every access misses; only the scaling
		// regime enters the exponent fit.
		if lru < int64(tr.Len()) {
			logM = append(logM, math.Log2(float64(m)))
			logMiss = append(logMiss, math.Log2(float64(lru)))
		}
	}
	fit, err := stats.LinearFit(logM, logMiss)
	if err != nil {
		return nil, err
	}
	t.Note = fmt.Sprintf("log-log slope of misses vs M = %.3f over the tall-cache regime (theory: -0.5, i.e. misses = Θ(N^1.5/(√M·B))); thrash-capped rows (misses = trace length) are excluded from the fit.", fit.Beta)
	return t, nil
}
