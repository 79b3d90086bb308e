// Command mmtrace generates matrix-multiply block traces and replays them
// against caches.
//
// Usage:
//
//	mmtrace -alg scan -dim 128 -block 8 -stats          # trace statistics
//	mmtrace -alg inplace -dim 128 -lru 256              # DAM misses at fixed M
//	mmtrace -alg inplace -dim 128 -lru 256 -policy arc  # same replay, ARC kernel
//	mmtrace -alg scan -dim 256 -profile p.tsv -policy 2q # profile replay, live kernel
//	mmtrace -alg scan -dim 128 -worstcase -reps 16      # multiplies under Fig-1 profile
//	mmtrace -alg scan -dim 1024 -stream -worstcase      # same, streaming (no materialized trace)
//
// Without -stream the trace is built once and every consumer replays it
// (tr.Emit); with -stream it is regenerated into each consumer instead, so
// sizes whose materialized trace would not fit stream fine. OPT is the one
// consumer that inherently needs the full trace, so -opt and -policy opt
// refuse -stream.
//
// -policy selects the replay by name (paging.ReplayNames): any registered
// kernel (paging.PolicyNames) or "opt" (clairvoyant Belady) for the -lru
// fixed-capacity replay, and any of those or "square" (the default
// cleared-cache square semantics) for the -profile replay, which runs
// through paging.Replay. Unknown names are rejected with the accepted
// list.
//
// -worstcase streams -reps repetitions of the trace, each in a fresh
// address range, into one square finisher (paging.ServedEmitRepeat).
//
// This is the substrate behind experiments E9 and E11.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"repro/internal/dp"
	"repro/internal/gep"
	"repro/internal/matrix"
	"repro/internal/paging"
	"repro/internal/profile"
	"repro/internal/sorting"
	"repro/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "mmtrace:", err)
		os.Exit(1)
	}
}

// distinctSink counts references, leaves, and distinct blocks without
// storing the trace.
type distinctSink struct {
	trace.CountingSink
	seen     []bool
	distinct int64
}

func (d *distinctSink) Access(block int64) {
	d.CountingSink.Access(block)
	for block >= int64(len(d.seen)) {
		d.seen = append(d.seen, make([]bool, len(d.seen)+1024)...)
	}
	if !d.seen[block] {
		d.seen[block] = true
		d.distinct++
	}
}

func (d *distinctSink) AccessRange(lo, count int64) {
	for i := int64(0); i < count; i++ {
		d.Access(lo + i)
	}
}

// run is the whole command behind main: flags in, report lines out on
// stdout. Taking both explicitly lets the tests drive the real flag and
// replay paths in-process.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("mmtrace", flag.ContinueOnError)
	var (
		alg       = fs.String("alg", "scan", "scan | inplace | strassen | fwscan | fwinplace | lcs | mergesort")
		dim       = fs.Int("dim", 128, "matrix dimension (power of two)")
		block     = fs.Int64("block", 8, "words per block")
		stats     = fs.Bool("stats", false, "print trace statistics")
		lru       = fs.Int64("lru", 0, "replay under a fixed-capacity cache with this many blocks (kernel chosen by -policy, default lru)")
		policy    = fs.String("policy", "", "replacement policy for the -lru and -profile replays (\"\" = lru / square respectively); one of "+strings.Join(paging.ReplayNames(), ", "))
		opt       = fs.Bool("opt", false, "also replay under Belady OPT (with -lru; needs a materialized trace)")
		worstcase = fs.Bool("worstcase", false, "count multiplies completed within the Figure-1 profile")
		reps      = fs.Int("reps", 16, "repetitions for -worstcase")
		profPath  = fs.String("profile", "", "replay the trace against a TSV square profile (e.g. from profilegen)")
		stream    = fs.Bool("stream", false, "stream the trace into each consumer instead of materializing it")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	// Validate the flags and their combinations up front, so a typo fails
	// before any trace is built.
	if *reps < 1 {
		return fmt.Errorf("-reps %d: need at least one repetition", *reps)
	}
	if *policy != "" && !slices.Contains(paging.ReplayNames(), *policy) {
		return fmt.Errorf("-policy %q is not an accepted replay policy (have %v)", *policy, paging.ReplayNames())
	}
	if *lru > 0 && *policy == paging.SquareReplayName {
		return fmt.Errorf("-policy square is the cleared-cache profile replay; it has no fixed-capacity form (use -profile)")
	}
	if *stream && (*opt || *policy == paging.OPTReplayName) {
		return fmt.Errorf("opt needs the full trace for the next-use precomputation; drop -stream")
	}

	var emit func(trace.Sink) error
	switch *alg {
	case "scan":
		emit = func(s trace.Sink) error { return matrix.EmitMulScan(*dim, *block, s) }
	case "inplace":
		emit = func(s trace.Sink) error { return matrix.EmitMulInPlace(*dim, *block, s) }
	case "strassen":
		emit = func(s trace.Sink) error { return matrix.EmitMulStrassen(*dim, *block, s) }
	case "fwscan":
		emit = func(s trace.Sink) error { return gep.EmitFWScan(*dim, *block, s) }
	case "fwinplace":
		emit = func(s trace.Sink) error { return gep.EmitFWInPlace(*dim, *block, s) }
	case "lcs":
		emit = func(s trace.Sink) error { return dp.EmitLCS(*dim, *block, s) }
	case "mergesort":
		emit = func(s trace.Sink) error { return sorting.EmitMergeSort(*dim, *block, s) }
	default:
		return fmt.Errorf("unknown algorithm %q", *alg)
	}

	// Without -stream, materialize once: every consumer replays the stored
	// trace through tr.Emit, and the opt replays read it directly.
	var tr *trace.Trace
	if !*stream {
		b := &trace.Builder{}
		if err := emit(b); err != nil {
			return err
		}
		tr = b.Build()
		emit = tr.Emit
	}
	// measure streams one emission through a counting sink.
	measure := func() (*trace.CountingSink, error) {
		c := &trace.CountingSink{}
		return c, emit(c)
	}

	did := false
	if *stats {
		d := &distinctSink{}
		if err := emit(d); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "algorithm=%s dim=%d B=%d\n", *alg, *dim, *block)
		fmt.Fprintf(stdout, "references=%d distinct-blocks=%d base-cases=%d\n", d.Refs, d.distinct, d.Leaves)
		did = true
	}
	if *lru > 0 {
		name := *policy
		if name == "" {
			name = "lru"
		}
		c, err := measure()
		if err != nil {
			return err
		}
		var misses int64
		if name == paging.OPTReplayName {
			misses, err = paging.RunPolicyFixed(name, tr, *lru)
		} else {
			misses, err = kernelMisses(name, *lru, c.MaxBlock, emit)
		}
		if err != nil {
			return err
		}
		label := strings.ToUpper(name)
		fmt.Fprintf(stdout, "%s(M=%d blocks): %d misses (%.1f%% of references)\n",
			label, *lru, misses, 100*float64(misses)/float64(c.Refs))
		if *opt && name != paging.OPTReplayName {
			om, err := paging.RunPolicyFixed(paging.OPTReplayName, tr, *lru)
			if err != nil {
				return err
			}
			fmt.Fprintf(stdout, "OPT(M=%d blocks): %d misses (%s/OPT = %.2f)\n", *lru, om, label, float64(misses)/float64(om))
		}
		did = true
	}
	if *worstcase {
		// The matrix algorithms stream their worst-case profile (dim-4096
		// scale profiles are never materialized); the others materialize the
		// profile and stream it through a cycling source.
		var (
			boxSrc   profile.Source
			nBoxes   int64
			duration int64
			err      error
		)
		switch *alg {
		case "scan", "inplace", "strassen":
			boxSrc, nBoxes, duration, err = matrix.WorstCaseBoxStream(*dim, *block)
		case "fwscan", "fwinplace", "mergesort":
			var wc *profile.SquareProfile
			if *alg == "mergesort" {
				wc, err = sorting.WorstCaseProfile(*dim, *block)
			} else {
				wc, err = gep.WorstCaseProfile(*dim, *block)
			}
			if err == nil {
				nBoxes, duration = int64(wc.Len()), wc.Duration()
				boxSrc, err = profile.NewSliceSource(wc)
			}
		default:
			return fmt.Errorf("-worstcase has no matched profile for %q", *alg)
		}
		if err != nil {
			return err
		}
		c, err := measure()
		if err != nil {
			return err
		}
		served, err := paging.ServedEmitRepeat(emit, c.MaxBlock, boxSrc, nBoxes, *reps, c.MaxBlock+1)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "worst-case profile: %d boxes, %d I/Os; %s completed %d multiplies\n",
			nBoxes, duration, *alg, served/c.Refs)
		did = true
	}
	if *profPath != "" {
		pf, err := os.Open(*profPath)
		if err != nil {
			return err
		}
		prof, err := profile.ReadTSV(pf)
		pf.Close()
		if err != nil {
			return err
		}
		if prof.Len() == 0 {
			return fmt.Errorf("profile %s is empty", *profPath)
		}
		src, err := profile.NewSliceSource(prof)
		if err != nil {
			return err
		}
		name := *policy
		if name == "" {
			name = paging.SquareReplayName
		}
		c, err := measure()
		if err != nil {
			return err
		}
		st, err := paging.Replay(name, emit, c.Refs, c.MaxBlock, src, 0)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "custom profile %s (%d boxes, cycled as needed) under %s:\n", *profPath, prof.Len(), name)
		fmt.Fprintf(stdout, "boxes used=%d IOs=%d base-cases completed=%d\n",
			len(st), paging.TotalIOs(st), paging.TotalLeaves(st))
		did = true
	}
	if !did {
		return fmt.Errorf("nothing to do: pass -stats, -lru, -worstcase, or -profile")
	}
	return nil
}

// kernelMisses replays the stream through the named registry kernel at a
// fixed capacity and returns its miss count.
func kernelMisses(name string, capacity, maxBlock int64, emit func(trace.Sink) error) (int64, error) {
	p, err := paging.NewReplacementPolicy(name, capacity)
	if err != nil {
		return 0, err
	}
	p.Reserve(maxBlock)
	if err := emit(paging.CacheSink{Cache: p}); err != nil {
		return 0, err
	}
	return p.Misses(), nil
}
