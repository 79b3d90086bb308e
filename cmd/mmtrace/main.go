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
//	mmtrace -alg scan -dim 1024 -worstcase              # a size whose trace would not fit in memory
//
// The trace is never stored: it is regenerated into each consumer, so
// memory stays bounded by the consumer's state and sizes whose
// materialized trace would not fit run fine. OPT is the one consumer that
// needs the full trace for its next-use pass; -opt and -policy opt
// materialize it through paging.Replay, which refuses a trace above 2^28
// references before building anything.
//
// -policy selects the replay by name (paging.ReplayNames): any registered
// kernel (paging.PolicyNames) or "opt" (clairvoyant Belady) for the -lru
// fixed-capacity replay, and any of those or "square" (the default
// cleared-cache square semantics) for the -profile replay. Both run
// through paging.Replay, -lru at a constant profile of -lru blocks.
// Unknown names are rejected with the accepted list.
//
// -worstcase counts how many of -reps back-to-back runs of the trace, each
// in a fresh address range, the worst-case profile's boxes complete
// (paging.Completions).
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
		opt       = fs.Bool("opt", false, "also replay under Belady OPT (with -lru; materializes the trace, at most 2^28 references)")
		worstcase = fs.Bool("worstcase", false, "count multiplies completed within the Figure-1 profile")
		reps      = fs.Int("reps", 16, "repetitions for -worstcase")
		profPath  = fs.String("profile", "", "replay the trace against a TSV square profile (e.g. from profilegen)")
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
		// A fixed capacity is a constant profile: the replay's I/Os are
		// its misses.
		fixedMisses := func(name string) (int64, error) {
			var ios int64
			capacity := profile.FuncSource(func() int64 { return *lru })
			err := paging.Replay(name, emit, c.Refs, c.MaxBlock, capacity, 0, func(b paging.BoxStat) { ios += b.IOs })
			return ios, err
		}
		// OPT runs first, so a trace above its ceiling fails before any
		// other replay streams it.
		var om int64
		if *opt || name == paging.OPTReplayName {
			if om, err = fixedMisses(paging.OPTReplayName); err != nil {
				return err
			}
		}
		misses := om
		if name != paging.OPTReplayName {
			if misses, err = fixedMisses(name); err != nil {
				return err
			}
		}
		label := strings.ToUpper(name)
		fmt.Fprintf(stdout, "%s(M=%d blocks): %d misses (%.1f%% of references)\n",
			label, *lru, misses, 100*float64(misses)/float64(c.Refs))
		if *opt && name != paging.OPTReplayName {
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
		runs, err := paging.Completions(emit, boxSrc, nBoxes, *reps)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "worst-case profile: %d boxes, %d I/Os; %s completed %d multiplies\n",
			nBoxes, duration, *alg, runs)
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
		var boxes, ios, leaves int64
		err = paging.Replay(name, emit, c.Refs, c.MaxBlock, src, 0, func(b paging.BoxStat) {
			boxes++
			ios += b.IOs
			leaves += b.Leaves
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "custom profile %s (%d boxes, cycled as needed) under %s:\n", *profPath, prof.Len(), name)
		fmt.Fprintf(stdout, "boxes used=%d IOs=%d base-cases completed=%d\n", boxes, ios, leaves)
		did = true
	}
	if !did {
		return fmt.Errorf("nothing to do: pass -stats, -lru, -worstcase, or -profile")
	}
	return nil
}
