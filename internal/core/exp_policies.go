package core

import (
	"fmt"

	"repro/internal/adaptivity"
	"repro/internal/engine"
	"repro/internal/matrix"
	"repro/internal/paging"
	"repro/internal/profile"
	"repro/internal/regular"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/xrand"
)

// This file implements the adaptive-policy experiments unlocked by the
// ReplacementPolicy registry: E12 (adaptivity gap by replacement policy —
// ROADMAP's "does Theorem 1's smoothing survive for adaptive policies?"
// question, with ARC/2Q from Consuegra et al.'s family replayed live
// against worst-case and i.i.d.-smoothed profiles) and E13 (the empirical
// smoothness curve Δfaults vs Δcapacity per Reineke & Salinger, "On the
// Smoothness of Paging Algorithms", across every registered policy).

func init() {
	register(Experiment{
		ID:      "E12",
		Source:  "ROADMAP: adaptive policies (Consuegra et al.) × Theorem 1",
		Summary: "Adaptivity gap of live ARC/2Q/LRU/FIFO kernels vs OPT and the square bound, on M_{8,4}(n) and under i.i.d. smoothing",
		Inputs:  InputSeed | InputTrials | InputMaxK,
		Run:     runE12,
	})
	register(Experiment{
		ID:      "E13",
		Source:  "Reineke & Salinger (smoothness of paging)",
		Summary: "Empirical smoothness curve: fault-count sensitivity to capacity changes (Δfaults per Δcapacity, and Belady-anomaly sweep) across all registered policies",
		Inputs:  InputMaxK,
		Run:     runE13,
	})
}

// e12KMax caps E12's sizes: every cell replays the MM-Scan reference
// stream through a live kernel (and opt replays a recording of it, one per
// size), so k = 6 (n = 4096, T(n) = 262144 references) keeps the policy ×
// trial grid affordable.
const e12KMax = 6

func runE12(cfg Config) (*Table, error) {
	spec := regular.MMScanSpec
	kMin, kMax := e12Sizes(cfg)
	// opt needs the future, so each size's stream is recorded once, here;
	// every opt run at that size, worst-case and i.i.d. alike, replays the
	// shared read-only recording.
	recs := make([]*paging.OPTRecording, kMax+1)
	for k := kMin; k <= kMax; k++ {
		rec, err := adaptivity.RecordTraceOPT(spec, profile.Pow(4, k))
		if err != nil {
			return nil, fmt.Errorf("E12 opt k=%d: %w", k, err)
		}
		recs[k] = rec
	}
	return e12Table(cfg, func(pol string, k int, src profile.Source) (adaptivity.RunResult, error) {
		if pol == paging.OPTReplayName {
			return adaptivity.MeasureOPT(spec, profile.Pow(4, k), recs[k], src, 0)
		}
		return adaptivity.MeasureTracePolicy(spec, profile.Pow(4, k), pol, src, 0)
	})
}

// e12Sizes is E12's size range: k = 3 up to MaxK, capped at e12KMax.
func e12Sizes(cfg Config) (kMin, kMax int) {
	return 3, min(cfg.MaxK, e12KMax)
}

// e12Table builds E12's table, running every replay through measure:
// MM-Scan on 4^k blocks under the named replay against boxes from src.
func e12Table(cfg Config, measure func(pol string, k int, src profile.Source) (adaptivity.RunResult, error)) (*Table, error) {
	kMin, kMax := e12Sizes(cfg)
	policies := paging.ReplayNames()

	t := &Table{
		ID:     "E12",
		Title:  "Adaptivity gap by replacement policy: live kernels vs the square bound, worst-case and i.i.d.-smoothed",
		Header: []string{"policy", "k", "n", "worst-case gap", "iid mean gap", "iid ci95"},
	}

	// Worst-case part: M_{8,4}(n) replayed deterministically (cycled when a
	// thrashing kernel needs more boxes than the profile holds) — serial,
	// one run per (policy, size).
	wcs, err := worstCases(kMin, kMax)
	if err != nil {
		return nil, err
	}
	wcGaps := make([][]float64, len(policies))
	for p, pol := range policies {
		wcGaps[p] = make([]float64, kMax-kMin+1)
		for k := kMin; k <= kMax; k++ {
			src, err := profile.NewSliceSource(wcs[k])
			if err != nil {
				return nil, err
			}
			res, err := measure(pol, k, src)
			if err != nil {
				return nil, fmt.Errorf("E12 %s k=%d: %w", pol, k, err)
			}
			wcGaps[p][k-kMin] = res.Gap()
		}
	}

	// i.i.d. part: box sizes drawn from the worst-case profile's own box
	// distribution (Theorem 1's strongest test) — one engine cell per
	// (policy, size, trial).
	dists := make(map[int]xrand.Dist, kMax-kMin+1)
	for k := kMin; k <= kMax; k++ {
		d, err := xrand.WorstCaseBoxDist(8, 4, profile.Pow(4, k))
		if err != nil {
			return nil, err
		}
		dists[k] = d
	}
	g := engine.NewGroup().WithContext(cfg.Context())
	gaps, err := sweep(g, len(policies), kMin, kMax, func(int) int { return cfg.Trials },
		func(_ *workerState, p, k, trial int) (float64, error) {
			rng := xrand.New(xrand.Split(cfg.Seed, "E12", int64(p), int64(k), int64(trial)))
			dist := dists[k]
			src := profile.FuncSource(func() int64 { return dist.Sample(rng) })
			res, err := measure(policies[p], k, src)
			if err != nil {
				return 0, fmt.Errorf("E12 %s k=%d trial %d: %w", policies[p], k, trial, err)
			}
			return res.Gap(), nil
		})
	if err != nil {
		return nil, err
	}

	var notes []string
	for p, pol := range policies {
		var wcCurve gapCurve
		for k := kMin; k <= kMax; k++ {
			wcCurve.add(k, []float64{wcGaps[p][k-kMin]})
			s := stats.Summarize(gaps[p][k-kMin])
			t.AddRow(pol, k, profile.Pow(4, k), wcGaps[p][k-kMin], s.Mean, s.CI95())
		}
		fit, err := wcCurve.slope()
		if err != nil {
			return nil, err
		}
		notes = append(notes, fmt.Sprintf("%s: worst-case slope %+.3f/level", pol, fit.Beta))
	}
	notes = append(notes, "square is the paper's cleared-cache discretisation and pays the full log gap on its tailored adversary (slope exactly +1.0/level); the live kernels — classical and adaptive alike — carry state across box boundaries, so the clear-per-box trick never bites and their realized gaps stay Θ(1) on the same profile, and i.i.d. smoothing keeps every policy flat (Theorem 1's shape).")
	t.Note = joinNotes(notes)
	finishMetrics(t, g)
	return t, nil
}

// e13Sweep is the contiguous capacity range each policy's fault curve is
// traced over; the grid rows and the anomaly sweep both read from it.
const (
	e13SweepLo = int64(8)
	e13SweepHi = int64(136)
)

func runE13(cfg Config) (*Table, error) {
	const bw = 8
	dims := []int{64}
	if cfg.MaxK >= 6 {
		dims = append(dims, 128)
	}
	policies := append(paging.PolicyNames(), paging.OPTReplayName)
	gridMs := []int64{16, 32, 64, 128}

	t := &Table{
		ID:     "E13",
		Title:  "Empirical smoothness: MM-Scan trace fault counts vs capacity (B=8 words/block)",
		Header: []string{"dim", "policy", "M (blocks)", "faults", "Δfaults(M+1)", "Δfaults(M+8)"},
	}

	// One fault curve per (dim, policy): faults at every capacity in the
	// sweep, computed as engine cells over the shared read-only traces.
	// LRU and OPT are stack algorithms, so one pass yields the whole curve
	// and each is one cell per dim; the other policies replay once per
	// capacity, a cell each.
	nM := int(e13SweepHi - e13SweepLo + 1)
	traces := make([]*traceCurve, len(dims))
	for di, dim := range dims {
		tr, err := trace.Materialize(func(s trace.Sink) error { return matrix.EmitMulScan(dim, bw, s) })
		if err != nil {
			return nil, err
		}
		traces[di] = &traceCurve{tr: tr, faults: make([][]int64, len(policies))}
		for p := range policies {
			traces[di].faults[p] = make([]int64, nM)
		}
	}
	type cell struct{ di, p, mi int } // mi < 0: a stack policy's whole curve
	var cells []cell
	for di := range dims {
		for p, pol := range policies {
			if e13StackPolicy(pol) {
				cells = append(cells, cell{di, p, -1})
				continue
			}
			for mi := 0; mi < nM; mi++ {
				cells = append(cells, cell{di, p, mi})
			}
		}
	}
	g := engine.NewGroup().WithContext(cfg.Context())
	// One kernel per (worker, policy), reused across capacities and dims:
	// RunKernelFixed clears it before each replay, so its dense index is
	// reserved once per worker rather than once per cell.
	kernels := make([][]paging.ReplacementPolicy, g.Workers())
	if err := g.Map(len(cells), func(i, w int) error {
		c := cells[i]
		tc := traces[c.di]
		if c.mi < 0 {
			curve, err := e13StackCurve(policies[c.p], tc.tr)
			if err != nil {
				return err
			}
			copy(tc.faults[c.p], curve[e13SweepLo:])
			return nil
		}
		if kernels[w] == nil {
			kernels[w] = make([]paging.ReplacementPolicy, len(policies))
		}
		m := e13SweepLo + int64(c.mi)
		k := kernels[w][c.p]
		if k == nil {
			var err error
			if k, err = paging.NewReplacementPolicy(policies[c.p], m); err != nil {
				return err
			}
			kernels[w][c.p] = k
		}
		faults, err := paging.RunKernelFixed(k, tc.tr, m)
		if err != nil {
			return err
		}
		tc.faults[c.p][c.mi] = faults
		return nil
	}); err != nil {
		return nil, err
	}

	var notes []string
	for di, dim := range dims {
		for p, pol := range policies {
			curve := traces[di].faults[p]
			for _, m := range gridMs {
				i := int(m - e13SweepLo)
				t.AddRow(dim, pol, m, curve[i], curve[i]-curve[i+1], curve[i]-curve[i+8])
			}
			// Belady-anomaly sweep: the largest single-step fault *increase*
			// under one extra block of capacity. LRU and OPT are monotone
			// (stack property / optimality), so anything positive there is a
			// bug in their stack curves; FIFO and the adaptive policies may
			// legitimately show one.
			var anomaly int64
			for i := 0; i+1 < nM; i++ {
				if d := curve[i+1] - curve[i]; d > anomaly {
					anomaly = d
				}
			}
			notes = append(notes, fmt.Sprintf("dim %d %s: max anomaly %+d faults/+1 block", dim, pol, anomaly))
			if anomaly > 0 && e13StackPolicy(pol) {
				return nil, fmt.Errorf("E13: %s shows a Belady anomaly (%d) at dim %d — stack policies are monotone", pol, anomaly, dim)
			}
		}
	}
	notes = append(notes, fmt.Sprintf("Δfaults(M+x) = faults(M) − faults(M+x) over M ∈ [%d, %d]: the discrete smoothness curve of Reineke & Salinger; anomaly > 0 means more capacity cost faults (Belady's anomaly).", e13SweepLo, e13SweepHi))
	t.Note = joinNotes(notes)
	finishMetrics(t, g)
	return t, nil
}

// e13StackPolicy reports whether E13 traces pol's fault curve in one stack
// pass (LRUCurve, OPTRecording.Curve) rather than a replay per capacity.
func e13StackPolicy(pol string) bool {
	return pol == "lru" || pol == paging.OPTReplayName
}

// e13StackCurve returns a stack policy's fault curve over tr at every
// capacity up to the sweep's top, from one pass.
func e13StackCurve(pol string, tr *trace.Trace) ([]int64, error) {
	if pol != paging.OPTReplayName {
		return paging.LRUCurve(tr, e13SweepHi)
	}
	rec, err := paging.RecordOPT(tr.Emit, int64(tr.Len()), tr.MaxBlock())
	if err != nil {
		return nil, err
	}
	return rec.Curve(e13SweepHi)
}

// traceCurve bundles one dim's shared trace with its per-policy fault
// curves over the E13 sweep.
type traceCurve struct {
	tr     *trace.Trace
	faults [][]int64
}
